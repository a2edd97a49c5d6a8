#!/usr/bin/env python3
"""Static concurrency lint for the dear tree (part of dearcheck).

Rules (suppress one occurrence with `// lint: allow(<rule>)` on the line):

  raw-mutex-lock      Mutex-like members must not be locked/unlocked by hand;
                      use std::lock_guard / std::unique_lock / std::scoped_lock
                      so an early return or exception cannot leak the lock and
                      deadlock a peer rank.
  atomic-memory-order Every std::atomic access spells out its std::memory_order.
                      Defaulted seq_cst hides the intended ordering contract and
                      makes TSan reports harder to interpret.
  tag-magic-bits      Message-tag bit packing must go through the shared
                      dear::comm::tags constants (kind|round|chunk layout), not
                      ad-hoc shifts and masks that can silently disagree between
                      sender and receiver.
  using-namespace-in-header
                      Headers must not hoist namespaces into every includer.
  raw-payload-buffer  (src/comm only) Transport payloads ride pooled slabs
                      (comm::PooledBuffer). Declaring a std::vector<float>
                      payload, assigning one as a payload, or copying a
                      message payload into a fresh vector reintroduces the
                      per-message heap traffic the zero-copy transport
                      removed (the perf-lab row transport.alloc_per_msg
                      bars it at 0 allocs).
  steady-clock-in-comm
                      (src/comm only) Hot-path instrumentation reads time
                      through flightrec::NowNs() / CachedNowNs() — one
                      calibrated origin, one benchmarked cost
                      (perf-lab row flightrec.event_ns). A direct
                      steady_clock::now() in the transport adds an
                      unbudgeted ~35 ns vDSO call and a second time base
                      the post-hoc trace merger cannot align.
  payload-dtype-access
                      (src/comm only) Wire payloads are dtype-tagged slabs
                      (comm::PooledBuffer); a 2-byte payload holds raw
                      binary16/bfloat16 encodings, not floats. Only the
                      fused kernels (kernels.cc) may interpret those
                      encodings (u16()) and only the pack path
                      (transport.cc) may take the untyped slab pointer
                      (wire_data()); everything else must stay
                      dtype-generic through kernels::Pack / UnpackInto /
                      ReduceInto so a new wire format cannot be silently
                      misread as floats. Element access on a payload
                      (.data()/.span()/.begin()/.end()/.u16()/
                      .wire_data()) outside the approved files is flagged.
  single-probe        (src/comm outside probe.h/probe.cc, and src/core)
                      Runtime events reach the flight-recorder journal and
                      the checker through one probe call per site
                      (comm/probe.h). A direct flightrec::Recorder::Get().On…
                      call or a checker collective/group hook
                      (OnCollectiveBegin/End, OnGroupEvent) brings back a
                      second event pipeline for the same moment.
  telemetry-export-only
                      (src/comm, src/core, src/tune, src/flightrec) Metrics
                      are a view of the run, built after it from the
                      journal and the pool's stats (`dearsim profile`). A
                      telemetry/ include or a telemetry:: use in the
                      runtime, the tuner or the recorder is how a second,
                      live count of the same events would come back.
  telemetry-no-collectives
                      (src/telemetry only) The journal's collective
                      brackets are the one record of every collective;
                      `dearsim profile`'s per-collective table, the trace
                      and attribution read them. A comm/ include under
                      src/telemetry is how per-collective metrics would
                      come back as a second count of the same calls.
  comm-no-analysis    (src/comm only) The comm runtime records; analysis
                      reads the record afterwards. Collectives are timed
                      once, by their journal bracket (comm/probe.h), and
                      the α–β fit runs offline over a journal snapshot
                      (analysis::Calibrate). An analysis/ include under
                      src/comm is how an online second timing of the same
                      collectives would come back.
  optim-journal-only  (src/core/dist_optim.* and src/core/trainer.*)
                      DistOptim's timing is the journal's: waits, iteration
                      times and the exposed-comm share are derived from its
                      schedule records (analysis::AttributeIterations). A
                      direct clock read (steady_clock, flightrec::NowNs)
                      there brings back a second clock for the same moments.
  single-alloc-counter
                      Global operator new is replaced in exactly one file,
                      src/perflab/alloc_counter.cc (the per-thread counter
                      every 0-alloc bar reads). A second global
                      `operator new` definition anywhere in the scanned
                      tree is a second counter that measures differently,
                      or a link-time clash with the shared one.

Usage: python3 tools/lint.py [--root DIR] [paths...]
Exits 1 if any finding survives suppression, 0 on a clean tree.
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
EXTENSIONS = (".h", ".cc")

# The one place allowed to define the tag bit layout.
TAG_LAYOUT_FILE = os.path.join("src", "comm", "types.h")

SUPPRESS_RE = re.compile(r"lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def strip_comments_and_strings(text):
    """Blank out comments, string literals, and char literals, preserving
    line structure so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c == "R" and nxt == '"' and (i == 0 or not text[i - 1].isalnum()):
            # Raw string literal R"delim(...)delim".
            j = text.find("(", i + 2)
            if j < 0:
                out.append(c)
                i += 1
                continue
            delim = text[i + 2 : j]
            end = text.find(")" + delim + '"', j)
            end = n if end < 0 else end + len(delim) + 2
            for k in range(i, end):
                out.append("\n" if text[k] == "\n" else " ")
            i = end
        elif c == '"':
            out.append(" ")
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                out.append("\n" if text[i - 0] == "\n" else " ")
                i += 1
            i += 1
        elif c == "'" and not (i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
            # Char literal; the guard skips C++14 digit separators (1'000).
            out.append(" ")
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    i += 1
                out.append(" ")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def call_args(text, open_paren):
    """Return the argument text of a call whose '(' is at open_paren,
    spanning lines if needed."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : j]
    return text[open_paren + 1 :]


LOCK_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*"
    r"(lock|unlock|try_lock|try_lock_shared|lock_shared|unlock_shared)\s*\(\s*\)"
)


def looks_like_mutex(name):
    low = name.lower()
    return ("mutex" in low or "mtx" in low
            or low in ("mu", "mu_") or low.endswith("_mu") or low.endswith("_mu_"))

ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set)\s*(\()"
)

ATOMIC_DECL_RE = re.compile(r"std::atomic(?:<[^;{}]*?>|_flag|_bool|_int)\s+(\w+)")

USING_NS_RE = re.compile(r"^\s*using\s+namespace\b")

# Directory whose time reads must go through the flight recorder's clock.
STEADY_CLOCK_DIR = "src/comm/"
STEADY_CLOCK_RE = re.compile(r"steady_clock\s*::\s*now\s*\(")

# Directory whose payload element access is dtype-policed, and the files
# allowed to touch payload storage directly: the accessor definitions
# (buffer_pool.h), the encoding interpreters (kernels.cc), and the pack
# path (transport.cc).
PAYLOAD_DTYPE_DIR = "src/comm/"
PAYLOAD_DTYPE_ALLOWED = (
    "src/comm/buffer_pool.h",
    "src/comm/kernels.cc",
    "src/comm/transport.cc",
)
PAYLOAD_DTYPE_RE = re.compile(
    r"\bpayload\s*(?:\.|->)\s*(?:data|span|begin|end)\s*\("  # fp32-only views
    r"|(?:\.|->)\s*(?:u16|wire_data)\s*\("  # raw wire encodings, any object
)

# Directory whose payloads must ride comm::PooledBuffer, never raw vectors.
RAW_PAYLOAD_DIR = "src/comm/"
RAW_PAYLOAD_RE = re.compile(
    r"std::vector<\s*float\s*>\s+payload\b"        # vector declared as payload
    r"|payload\s*=\s*std::vector<\s*float\s*>"     # vector assigned as payload
    r"|std::vector<\s*float\s*>\s+\w+\s*[({][^;]*payload"  # payload copied out
)

# Directories whose runtime events must go through comm/probe.h, and the
# probe module itself (the one place allowed to call the consumers).
SINGLE_PROBE_DIRS = ("src/comm/", "src/core/")
SINGLE_PROBE_ALLOWED = ("src/comm/probe.h", "src/comm/probe.cc")
SINGLE_PROBE_RE = re.compile(
    r"\bRecorder::Get\(\)\s*\.\s*On\w*\s*\("  # journal hooks
    r"|(?:\.|->)\s*(?:OnCollectiveBegin|OnCollectiveEnd|OnGroupEvent)\s*\("
)

# Directories that may not see telemetry: metrics are exported after the
# run, never counted live.
TELEMETRY_EXPORT_ONLY_DIRS = ("src/comm/", "src/core/", "src/tune/",
                              "src/flightrec/")
# The include is matched against the raw line (the stripper blanks its
# path), the use against the stripped one.
TELEMETRY_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"telemetry/')
TELEMETRY_USE_RE = re.compile(r"\btelemetry::")

# Directory that must not see the collective library: telemetry counts
# transport traffic and pools, never collectives (the journal does).
TELEMETRY_DIR = "src/telemetry/"
# Matched against the raw line (the stripper blanks the include's path).
COMM_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"comm/')

# Directory that must not see the analysis layer: it writes the journal
# that analysis reads after the run.
COMM_DIR = "src/comm/"
# Matched against the raw line (the stripper blanks the include's path).
ANALYSIS_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"analysis/')

# Files whose timing must come from the journal alone: no clock reads of
# their own.
OPTIM_JOURNAL_ONLY_RE = re.compile(r"src/core/(?:dist_optim|trainer)\.[^/]*$")
OPTIM_CLOCK_RE = re.compile(r"\bsteady_clock\b|\bflightrec::NowNs\b")

# The one file allowed to define a global operator new.
ALLOC_COUNTER_FILE = "src/perflab/alloc_counter.cc"
# A global (column-0) operator new / new[] definition or declaration.
GLOBAL_OPERATOR_NEW_RE = re.compile(r"^void\s*\*\s*operator\s+new\b")

SHIFT_BY_LITERAL_RE = re.compile(r"(<<|>>)\s*\d")
HEX_MASK_RE = re.compile(r"&\s*0[xX][0-9a-fA-F]+|0[xX][0-9a-fA-F]+\s*&")
TAG_CONTEXT_RE = re.compile(r"\btags?\b|\bTag[A-Z]|_tag\b|\btag_|MakeTag|msg->tag")


class Linter:
    def __init__(self):
        self.findings = []

    def report(self, path, line_no, rule, message, raw_line):
        m = SUPPRESS_RE.search(raw_line)
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return
        self.findings.append((path, line_no, rule, message))

    def lint_file(self, path):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.split("\n")
        lines = stripped.split("\n")
        is_header = path.endswith(".h")
        is_tag_layout = path.replace(os.sep, "/").endswith(
            TAG_LAYOUT_FILE.replace(os.sep, "/")
        )

        def raw_line(idx):
            return raw_lines[idx] if idx < len(raw_lines) else ""

        # Rule: raw-mutex-lock.
        for i, line in enumerate(lines):
            for m in LOCK_CALL_RE.finditer(line):
                if not looks_like_mutex(m.group(1)):
                    continue
                self.report(
                    path, i + 1, "raw-mutex-lock",
                    f"naked {m.group(1)}.{m.group(2)}() — use std::lock_guard/"
                    "std::unique_lock (RAII) instead",
                    raw_line(i))

        # Rule: atomic-memory-order — member calls missing an explicit order.
        offset = 0
        for i, line in enumerate(lines):
            for m in ATOMIC_CALL_RE.finditer(line):
                args = call_args(stripped, offset + m.start(2))
                if "memory_order" not in args:
                    self.report(
                        path, i + 1, "atomic-memory-order",
                        f".{m.group(1)}() without an explicit std::memory_order",
                        raw_line(i))
            offset += len(line) + 1

        # Rule: atomic-memory-order — operators on declared atomics
        # (assignment, ++/--, +=) compile to seq_cst RMWs with no order spelled.
        atomic_names = set(ATOMIC_DECL_RE.findall(stripped))
        if atomic_names:
            names = "|".join(re.escape(n) for n in sorted(atomic_names))
            op_re = re.compile(
                r"(?:(\+\+|--)\s*(" + names + r")\b"
                r"|\b(" + names + r")\s*(\+\+|--|[-+|&^]?=)(?![=]))"
            )
            for i, line in enumerate(lines):
                for m in op_re.finditer(line):
                    name = m.group(2) or m.group(3)
                    # Skip the declaration's own initializer (handled by {}-init
                    # or `= value` at declaration, which is not an atomic RMW).
                    if ATOMIC_DECL_RE.search(line):
                        continue
                    self.report(
                        path, i + 1, "atomic-memory-order",
                        f"operator access to std::atomic '{name}' — use "
                        ".load/.store/.fetch_* with an explicit memory_order",
                        raw_line(i))

        # Rule: tag-magic-bits.
        if not is_tag_layout:
            for i, line in enumerate(lines):
                if "tags::" in line or not TAG_CONTEXT_RE.search(line):
                    continue
                if SHIFT_BY_LITERAL_RE.search(line) or HEX_MASK_RE.search(line):
                    self.report(
                        path, i + 1, "tag-magic-bits",
                        "tag bit twiddling with literal shifts/masks — use "
                        "dear::comm::tags constants (MakeTag/KindOf/RoundOf/"
                        "ChunkOf)",
                        raw_line(i))

        # Rule: raw-payload-buffer (transport layer only).
        if RAW_PAYLOAD_DIR in path.replace(os.sep, "/"):
            for i, line in enumerate(lines):
                if RAW_PAYLOAD_RE.search(line):
                    self.report(
                        path, i + 1, "raw-payload-buffer",
                        "raw std::vector<float> message payload — transport "
                        "payloads must ride comm::PooledBuffer (pooled "
                        "zero-copy slabs)",
                        raw_line(i))

        # Rule: payload-dtype-access (transport layer only, approved files
        # exempt).
        norm = path.replace(os.sep, "/")
        if PAYLOAD_DTYPE_DIR in norm and not any(
            norm.endswith(a) for a in PAYLOAD_DTYPE_ALLOWED
        ):
            for i, line in enumerate(lines):
                if PAYLOAD_DTYPE_RE.search(line):
                    self.report(
                        path, i + 1, "payload-dtype-access",
                        "dtype-blind payload element access — wire "
                        "encodings belong to the fused kernels "
                        "(comm/kernels.h); go dtype-generic via "
                        "kernels::Pack/UnpackInto/ReduceInto",
                        raw_line(i))

        # Rule: steady-clock-in-comm (transport layer only).
        if STEADY_CLOCK_DIR in path.replace(os.sep, "/"):
            for i, line in enumerate(lines):
                if STEADY_CLOCK_RE.search(line):
                    self.report(
                        path, i + 1, "steady-clock-in-comm",
                        "direct steady_clock::now() in the transport — read "
                        "time via flightrec::NowNs()/CachedNowNs() (single "
                        "calibrated origin, benchmarked cost)",
                        raw_line(i))

        # Rule: single-probe (comm and core, probe module exempt).
        if any(d in norm for d in SINGLE_PROBE_DIRS) and not any(
            norm.endswith(a) for a in SINGLE_PROBE_ALLOWED
        ):
            for i, line in enumerate(lines):
                if SINGLE_PROBE_RE.search(line):
                    self.report(
                        path, i + 1, "single-probe",
                        "direct journal/checker hook — make one "
                        "comm::probe call per site (comm/probe.h)",
                        raw_line(i))

        # Rule: telemetry-export-only (runtime, tuner and recorder).
        if any(d in norm for d in TELEMETRY_EXPORT_ONLY_DIRS):
            for i, line in enumerate(lines):
                if (TELEMETRY_INCLUDE_RE.search(raw_line(i))
                        or TELEMETRY_USE_RE.search(line)):
                    self.report(
                        path, i + 1, "telemetry-export-only",
                        "telemetry in the runtime — metrics are exported "
                        "after the run from the journal and PoolStats "
                        "(analysis::ExportTransportMetrics), not counted "
                        "live",
                        raw_line(i))

        # Rule: telemetry-no-collectives (telemetry only).
        if TELEMETRY_DIR in norm:
            for i in range(len(lines)):
                if COMM_INCLUDE_RE.search(raw_line(i)):
                    self.report(
                        path, i + 1, "telemetry-no-collectives",
                        "comm/ include in telemetry — collectives are "
                        "recorded once, as journal brackets (comm/probe.h); "
                        "read them back with analysis::PairScheduleRecords",
                        raw_line(i))

        # Rule: comm-no-analysis (comm only).
        if COMM_DIR in norm:
            for i in range(len(lines)):
                if ANALYSIS_INCLUDE_RE.search(raw_line(i)):
                    self.report(
                        path, i + 1, "comm-no-analysis",
                        "analysis/ include in comm — collectives are timed "
                        "once, by their journal bracket; fit them offline "
                        "from a journal snapshot (analysis::Calibrate)",
                        raw_line(i))

        # Rule: optim-journal-only (DistOptim and the training loop).
        if OPTIM_JOURNAL_ONLY_RE.search(norm):
            for i, line in enumerate(lines):
                if OPTIM_CLOCK_RE.search(line):
                    self.report(
                        path, i + 1, "optim-journal-only",
                        "second clock in DistOptim — time it from the "
                        "journal's schedule records "
                        "(analysis::AttributeIterations), not a clock read",
                        raw_line(i))

        # Rule: single-alloc-counter (the counter's own file exempt).
        if not norm.endswith(ALLOC_COUNTER_FILE):
            for i, line in enumerate(lines):
                if GLOBAL_OPERATOR_NEW_RE.search(line):
                    self.report(
                        path, i + 1, "single-alloc-counter",
                        "global operator new outside "
                        f"{ALLOC_COUNTER_FILE} — count allocations with "
                        "perflab::ThreadAllocs() and link dear_alloc_counter",
                        raw_line(i))

        # Rule: using-namespace-in-header.
        if is_header:
            for i, line in enumerate(lines):
                if USING_NS_RE.search(line):
                    self.report(
                        path, i + 1, "using-namespace-in-header",
                        "`using namespace` in a header leaks into every "
                        "includer",
                        raw_line(i))


def collect_files(root, explicit):
    if explicit:
        return [p for p in explicit if p.endswith(EXTENSIONS)]
    files = []
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [x for x in dirnames if not x.startswith("build")]
            for fn in sorted(filenames):
                if fn.endswith(EXTENSIONS):
                    files.append(os.path.join(dirpath, fn))
    return sorted(files)


SELFTEST_SOURCE = """\
#include "analysis/calib.h"  // finding: comm-no-analysis
#include "telemetry/metrics.h"  // finding: telemetry-export-only
#include "analysis/timeline.h"  // suppressed: lint: allow(comm-no-analysis)
using namespace std;  // finding: using-namespace-in-header
struct Bad {
  std::mutex mutex_;
  std::atomic<int> hits_{0};
  void Poke(int round, int chunk) {
    mutex_.lock();                              // finding: raw-mutex-lock
    hits_.fetch_add(1);                         // finding: atomic-memory-order
    ++hits_;                                    // finding: atomic-memory-order
    int tag = (3 << 24) | (round << 12) | chunk;  // finding: tag-magic-bits
    (void)tag;
    mutex_.unlock();  // suppressed: lint: allow(raw-mutex-lock)
  }
  std::vector<float> payload;  // finding: raw-payload-buffer
  void CopyOut(const Message& m) {
    std::vector<float> copy(m.payload.begin(), m.payload.end());  // finding: raw-payload-buffer, payload-dtype-access
    (void)copy;
  }
  void Peek(const Message& m) {
    auto view = m.payload.span();                 // finding: payload-dtype-access
    const std::uint16_t* bits = m.payload.u16();  // finding: payload-dtype-access
    void* slab = m.payload.wire_data();           // finding: payload-dtype-access
    (void)view; (void)bits; (void)slab;
  }
  void Stamp() {
    auto t = std::chrono::steady_clock::now();  // finding: steady-clock-in-comm
    (void)t;
  }
  void Instrument(Message& m, Checker& checker) {
    flightrec::Recorder::Get().OnSend(0, 1, m.tag, 4, &m.causal, &m.lamport);  // finding: single-probe
    checker.OnGroupEvent(0, 1, kind);           // finding: single-probe
    telemetry::OnMessageSent(0, 4);             // finding: telemetry-export-only
  }
};
void* operator new(std::size_t n) { return std::malloc(n); }  // finding: single-alloc-counter
"""

# Linted as src/core/trainer.cc, where optim-journal-only and
# telemetry-export-only apply.
SELFTEST_CORE_SOURCE = """\
#include "telemetry/metrics.h"  // finding: telemetry-export-only
void Train() {
  telemetry::MetricsRegistry reg;               // finding: telemetry-export-only
  telemetry::Counter* c = nullptr;  // suppressed: lint: allow(telemetry-export-only)
  const auto t0 = std::chrono::steady_clock::now();  // finding: optim-journal-only
  const std::uint64_t ns = flightrec::NowNs();  // finding: optim-journal-only
  (void)reg; (void)c; (void)t0; (void)ns;
  const auto t1 = flightrec::NowNs();  // suppressed: lint: allow(optim-journal-only)
  (void)t1;
}
"""

# Linted as src/telemetry/selftest_snippet.h, where telemetry-no-collectives
# applies.
SELFTEST_TELEMETRY_SOURCE = """\
#include "telemetry/metrics.h"
#include "comm/types.h"  // finding: telemetry-no-collectives
#include "comm/probe.h"  // suppressed: lint: allow(telemetry-no-collectives)
"""

SELFTEST_EXPECT = {
    "using-namespace-in-header": 1,
    "raw-mutex-lock": 1,  # the .unlock() is suppressed
    "atomic-memory-order": 2,
    "tag-magic-bits": 1,
    "raw-payload-buffer": 2,
    "payload-dtype-access": 4,  # begin/end copy line + span + u16 + wire_data
    "steady-clock-in-comm": 1,
    "single-probe": 2,
    "single-alloc-counter": 1,
    "optim-journal-only": 2,  # the third is suppressed
    "telemetry-export-only": 4,  # the fifth is suppressed
    "telemetry-no-collectives": 1,  # the second is suppressed
    "comm-no-analysis": 1,  # the second is suppressed
}


def selftest():
    """Lint a known-bad snippet and require every rule to fire exactly as
    expected — guards the linter itself against silent regressions."""
    import tempfile

    # Each snippet lives where its path-scoped rules apply: src/comm/ for
    # the transport rules and comm-no-analysis, src/core/trainer.cc for
    # optim-journal-only, both for telemetry-export-only, src/telemetry/
    # for telemetry-no-collectives (and no telemetry-export-only).
    with tempfile.TemporaryDirectory() as tmpdir:
        linter = Linter()
        for rel, source in (
                (os.path.join("src", "comm", "selftest_snippet.h"),
                 SELFTEST_SOURCE),
                (os.path.join("src", "core", "trainer.cc"),
                 SELFTEST_CORE_SOURCE),
                (os.path.join("src", "telemetry", "selftest_snippet.h"),
                 SELFTEST_TELEMETRY_SOURCE)):
            path = os.path.join(tmpdir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
            linter.lint_file(path)
    got = {}
    for _, _, rule, _ in linter.findings:
        got[rule] = got.get(rule, 0) + 1
    if got != SELFTEST_EXPECT:
        print(f"lint.py selftest FAILED: expected {SELFTEST_EXPECT}, "
              f"got {got}", file=sys.stderr)
        return 1
    print("lint.py selftest OK: every rule fires and suppression works")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--selftest", action="store_true",
                    help="verify each rule fires on a known-bad snippet")
    ap.add_argument("paths", nargs="*",
                    help="specific files to lint (default: whole tree)")
    args = ap.parse_args(argv)

    if args.selftest:
        return selftest()

    files = collect_files(args.root, args.paths)
    if not files:
        print("lint.py: no input files", file=sys.stderr)
        return 2

    linter = Linter()
    for path in files:
        linter.lint_file(path)

    for path, line_no, rule, message in linter.findings:
        rel = os.path.relpath(path, args.root)
        print(f"{rel}:{line_no}: [{rule}] {message}")
    n = len(linter.findings)
    print(f"lint.py: {len(files)} files, "
          f"{n} finding{'s' if n != 1 else ''}")
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
