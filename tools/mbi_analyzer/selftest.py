#!/usr/bin/env python3
"""Self-tests for tools/mbi_analyzer.

Two suites:

  unit      No clang needed. Exercises the pure-Python machinery — rule
            scoping, type parsing, waiver bookkeeping, the ratchet, the
            MBI_IGNORE_STATUS text pass — and drives the AST walker over a
            hand-built clang-JSON document (delta-encoded locations, macro
            spelling/expansion pairs, bare decl references), asserting the
            expected findings and lock facts come out.

  fixtures  Needs a clang that supports `-Xclang -ast-dump=json`; exits 77
            (the ctest SKIP_RETURN_CODE) when none is found, mirroring how
            the Clang-only static_checks legs skip under GCC. Runs the
            analyzer over every testdata/*.cc fixture against an empty
            ratchet and compares the findings to the inline
            `expect: <rule>` directives: every expected finding must
            appear, and nothing unexpected may.

Usage: selftest.py [unit|fixtures|all]
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import mbi_analyzer as mba  # noqa: E402

TESTDATA = pathlib.Path(__file__).resolve().parent / "testdata"
FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z-]+)\]")
DIRECTIVE_RE = re.compile(r"expect:\s*([a-z-]+)")

_failures = []


def check(cond, what):
    if cond:
        return
    _failures.append(what)
    print("FAIL: %s" % what)


# ---------------------------------------------------------------------------
# unit suite


def unit_scoping():
    ar = mba.active_rules
    check("wall-clock" not in ar("src/util/io.cc"),
          "wall-clock must be inactive in src/util/ (the sanctioned seam)")
    check("wall-clock" in ar("src/shard/sharded_mbi.cc"),
          "wall-clock must be active in src/shard/")
    check("budget-charge" in ar("src/shard/sharded_mbi.cc"),
          "budget-charge must be active in src/shard/")
    check("budget-charge" not in ar("src/util/budget.cc"),
          "budget-charge must be inactive in src/util/")
    check("budget-charge" not in ar("tests/shard_test.cc"),
          "budget-charge must be inactive in tests/")
    check("budget-charge" in ar("bench/bench_micro_kernels.cc"),
          "budget-charge must be active in bench/")
    check("unchecked-result" in ar("src/util/io.cc"),
          "status-flow rules apply everywhere, util/ included")
    check("raw-mutex" not in ar("src/util/mutex.h"),
          "hygiene rules must be inactive in src/util/")
    check(ar("tools/mbi_analyzer/testdata/x.cc") == mba.ANALYZER_RULES,
          "fixtures get the full rule set")


def unit_type_parsing():
    check(mba._first_template_arg(
        "std::map<const Node *, int>", ("std::map<",)) == "const Node *",
        "first template arg of a two-arg map")
    check(mba._first_template_arg(
        "std::map<std::pair<int, int>, V>", ("std::map<",))
        == "std::pair<int, int>",
        "nested template args don't split on the inner comma")
    check(mba._pointer_keyed("std::set<Node *>", "std::set<Node *>"),
          "pointer-keyed set detected")
    check(mba._pointer_keyed("std::map<int, Node *>",
                             "std::map<int, Node *>") is None,
          "pointer values are fine")
    check(mba._pointer_keyed("std::unordered_set<const Node *>",
                             "std::unordered_set<const Node *>"),
          "pointer-keyed unordered_set detected")


def unit_ignore_status():
    lines = [
        "void F() {",
        "  MBI_IGNORE_STATUS(Ping());",
        "  MBI_IGNORE_STATUS(Ping());  // justified",
        "  // justified above",
        "  MBI_IGNORE_STATUS(Ping());",
        "#define MBI_IGNORE_STATUS(expr) (void)(expr)",
        "}",
    ]
    out = mba.scan_ignore_status("src/persist/x.cc", lines)
    check([f.line for f in out] == [2],
          "only the bare MBI_IGNORE_STATUS is flagged (got %s)"
          % [f.line for f in out])


def unit_waivers():
    lines = [
        "int a;  // mbi-lint: allow(wall-clock) — hit",
        "// mbi-lint: allow(naked-new, raw-mutex) — above",
        "int b;",
        "int c;  // mbi-lint: allow(wall-clock) — stale",
        "int d;  // mbi-lint: allow(bogus-rule)",
        "int e;  // mbi-lint: allow(header-guard) — other tool's rule",
    ]
    check(mba.waivers_for_line(lines, 3) == {"naked-new", "raw-mutex"},
          "line-above waiver parses a rule list")
    findings = [
        mba.Finding("f.cc", 1, "wall-clock", "m"),
        mba.Finding("f.cc", 3, "naked-new", "m"),
        mba.Finding("f.cc", 3, "raw-mutex", "m"),
        mba.Finding("f.cc", 3, "wall-clock", "m"),
    ]
    kept, consumed = mba.apply_waivers(findings, {"f.cc": lines})
    check([(f.line, f.rule) for f in kept] == [(3, "wall-clock")],
          "waivers suppress only their own rule (kept %s)"
          % [(f.line, f.rule) for f in kept])
    rot = mba.scan_waiver_rot({"f.cc"}, {"f.cc": lines}, consumed)
    got = {(f.line, f.rule) for f in rot}
    check(got == {(4, "stale-waiver"), (5, "unknown-waiver")},
          "stale + unknown waivers reported, other-tool rules left alone "
          "(got %s)" % sorted(got))


def unit_ratchet():
    with tempfile.TemporaryDirectory() as td:
        rp = pathlib.Path(td) / "ratchet.json"
        rp.write_text(json.dumps({"lock_coverage": ["A::x", "B::y"]}))
        facts = {"A::x": {"file": "src/a.cc", "line": 3,
                          "class": "A", "field": "x"},
                 "C::z": {"file": "src/c.cc", "line": 9,
                          "class": "C", "field": "z"}}
        out = mba.check_ratchet(facts, False, rp)
        rules = sorted((f.file, f.rule) for f in out)
        check(len(out) == 2 and all(f.rule == "lock-coverage" for f in out),
              "new debt (C::z) and a stale entry (B::y) both fail (got %s)"
              % rules)
        mba.check_ratchet(facts, True, rp)
        check(json.loads(rp.read_text())["lock_coverage"] == ["A::x", "C::z"],
              "--update-ratchet rewrites to the observed set")
        check(not mba.check_ratchet(facts, False, rp),
              "after update the ratchet is clean")


def _vpath():
    return str(mba.REPO / "tools" / "mbi_analyzer" / "testdata"
               / "virtual_unit.cc")


def _minimal_tu():
    """A hand-built clang-JSON AST: stub std/mbi decls (so bare decl refs
    resolve to qualified names), then one function exercising wall-clock,
    budget-charge, unchecked-result, naked-new, and a lock-coverage class.
    Locations are delta-encoded exactly like clang emits them."""
    V = _vpath()

    def dre(decl_id, kind, name, qual=""):
        ref = {"id": decl_id, "kind": kind, "name": name}
        if qual:
            ref["type"] = {"qualType": qual}
        return {"kind": "DeclRefExpr", "referencedDecl": ref}

    def cast(child):
        return {"kind": "ImplicitCastExpr", "inner": [child]}

    return {"kind": "TranslationUnitDecl", "inner": [
        {"kind": "NamespaceDecl", "name": "std", "inner": [
            {"kind": "NamespaceDecl", "name": "chrono", "inner": [
                {"kind": "CXXRecordDecl", "name": "system_clock",
                 "completeDefinition": True, "id": "0x100", "inner": [
                     {"kind": "CXXMethodDecl", "id": "0x101", "name": "now"},
                 ]},
            ]},
        ]},
        {"kind": "FunctionDecl", "id": "0x102", "name": "time"},
        {"kind": "NamespaceDecl", "name": "mbi", "inner": [
            {"kind": "FunctionDecl", "id": "0x110",
             "name": "L2SquaredDistance"},
        ]},
        {"kind": "FunctionDecl", "id": "0x200", "name": "F",
         "loc": {"file": V, "line": 10, "col": 1}, "inner": [
             {"kind": "CompoundStmt", "inner": [
                 # std::chrono::system_clock::now() — via a macro expansion,
                 # so the walker must attribute to the expansion site.
                 {"kind": "CallExpr",
                  "range": {"begin": {
                      "spellingLoc": {"file": "<scratch space>", "line": 1},
                      "expansionLoc": {"file": V, "line": 11}},
                      "end": {}},
                  "inner": [cast(dre("0x101", "CXXMethodDecl", "now"))]},
                 # ::time(nullptr)
                 {"kind": "CallExpr", "range": {"begin": {"line": 12},
                                                "end": {}},
                  "inner": [cast(dre("0x102", "FunctionDecl", "time"))]},
                 # A distance loop with no charge on any path.
                 {"kind": "ForStmt",
                  "range": {"begin": {"line": 13}, "end": {"line": 15}},
                  "inner": [
                      {"kind": "CompoundStmt", "inner": [
                          {"kind": "CallExpr",
                           "range": {"begin": {"line": 14}, "end": {}},
                           "inner": [cast(dre("0x110", "FunctionDecl",
                                              "L2SquaredDistance"))]},
                      ]},
                  ]},
                 {"kind": "CXXNewExpr",
                  "range": {"begin": {"line": 16}, "end": {}}},
                 # r.value() with no guard.
                 {"kind": "CXXMemberCallExpr",
                  "range": {"begin": {"line": 17}, "end": {}},
                  "inner": [
                      {"kind": "MemberExpr", "name": "value",
                       "referencedMemberDecl": "0x300",
                       "inner": [dre("0x301", "VarDecl", "r",
                                     "mbi::Result<int>")]},
                  ]},
                 # g.ok() then g.value(): guarded, no finding.
                 {"kind": "CXXMemberCallExpr",
                  "range": {"begin": {"line": 18}, "end": {}},
                  "inner": [
                      {"kind": "MemberExpr", "name": "ok",
                       "referencedMemberDecl": "0x302",
                       "inner": [dre("0x303", "VarDecl", "g",
                                     "mbi::Result<int>")]},
                  ]},
                 {"kind": "CXXMemberCallExpr",
                  "range": {"begin": {"line": 19}, "end": {}},
                  "inner": [
                      {"kind": "MemberExpr", "name": "value",
                       "referencedMemberDecl": "0x300",
                       "inner": [dre("0x303", "VarDecl", "g",
                                     "mbi::Result<int>")]},
                  ]},
             ]},
         ]},
        # A lock-owning class whose method writes a field declared *below*
        # the method (pending-write resolution must handle that), with the
        # fields at the bottom, repo-style.
        {"kind": "CXXRecordDecl", "name": "Gather",
         "completeDefinition": True, "id": "0xC0",
         "loc": {"line": 30}, "inner": [
             {"kind": "CXXMethodDecl", "name": "Done", "id": "0xC1",
              "loc": {"line": 31}, "inner": [
                  {"kind": "CompoundStmt", "inner": [
                      {"kind": "DeclStmt", "inner": [
                          {"kind": "VarDecl", "name": "lock",
                           "loc": {"line": 32},
                           "type": {"qualType": "mbi::MutexLock"}},
                      ]},
                      {"kind": "BinaryOperator", "opcode": "=",
                       "range": {"begin": {"line": 33}, "end": {}},
                       "inner": [
                           {"kind": "MemberExpr", "name": "done_",
                            "referencedMemberDecl": "0xC3",
                            "inner": [{"kind": "CXXThisExpr"}]},
                           {"kind": "IntegerLiteral"},
                       ]},
                  ]},
              ]},
             {"kind": "FieldDecl", "name": "mu_", "id": "0xC2",
              "loc": {"line": 36}, "type": {"qualType": "mbi::Mutex"}},
             {"kind": "FieldDecl", "name": "done_", "id": "0xC3",
              "loc": {"line": 37}, "type": {"qualType": "bool"}},
         ]},
    ]}


def unit_walker():
    ta = mba.TuAnalysis(mba.REPO)
    ta.walk(_minimal_tu())
    ta.resolve_pending_writes()
    got = sorted((f.line, f.rule) for f in ta.findings)
    want = [(11, "wall-clock"), (12, "wall-clock"), (13, "budget-charge"),
            (16, "naked-new"), (17, "unchecked-result")]
    check(got == want, "walker findings: want %s, got %s" % (want, got))
    check(ta.decl_qnames.get("0x101") == "std::chrono::system_clock::now",
          "bare decl refs resolve through the namespace/record stacks")
    check(set(ta.lock_facts) == {"Gather::done_"},
          "unannotated field written under the lock becomes a lock fact "
          "(got %s)" % sorted(ta.lock_facts))


def unit_walker_charged():
    """The same loop is clean once the tracker is charged inside it."""
    tu = _minimal_tu()
    func = tu["inner"][3]
    loop_body = func["inner"][0]["inner"][2]["inner"][0]["inner"]
    loop_body.append({
        "kind": "CXXMemberCallExpr",
        "range": {"begin": {"line": 14}, "end": {}},
        "inner": [
            {"kind": "MemberExpr", "name": "ChargeDistance",
             "referencedMemberDecl": "0x112",
             "inner": [{"kind": "DeclRefExpr", "referencedDecl": {
                 "id": "0x400", "kind": "ParmVarDecl", "name": "budget",
                 "type": {"qualType": "mbi::BudgetTracker *"}}}]},
        ]})
    ta = mba.TuAnalysis(mba.REPO)
    ta.walk(tu)
    ta.resolve_pending_writes()
    rules = [f.rule for f in ta.findings]
    check("budget-charge" not in rules,
          "ChargeDistance inside the loop satisfies budget-charge")


def _nest_tu(with_charge):
    """for { for { kernel } [charge] } — the amortized-charging shape."""
    V = _vpath()
    kernel_call = {
        "kind": "CallExpr", "range": {"begin": {"line": 53}, "end": {}},
        "inner": [{"kind": "ImplicitCastExpr", "inner": [
            {"kind": "DeclRefExpr", "referencedDecl": {
                "id": "0x110", "kind": "FunctionDecl",
                "name": "L2SquaredDistance"}}]}]}
    outer_body = [
        {"kind": "ForStmt",
         "range": {"begin": {"line": 52}, "end": {"line": 54}},
         "inner": [{"kind": "CompoundStmt", "inner": [kernel_call]}]},
    ]
    if with_charge:
        outer_body.append({
            "kind": "CXXMemberCallExpr",
            "range": {"begin": {"line": 55}, "end": {}},
            "inner": [{"kind": "MemberExpr", "name": "ChargeDistance",
                       "referencedMemberDecl": "0x112",
                       "inner": [{"kind": "DeclRefExpr", "referencedDecl": {
                           "id": "0x400", "kind": "ParmVarDecl",
                           "name": "budget",
                           "type": {"qualType": "mbi::BudgetTracker *"}}}]}]})
    return {"kind": "TranslationUnitDecl", "inner": [
        {"kind": "NamespaceDecl", "name": "mbi", "inner": [
            {"kind": "FunctionDecl", "id": "0x110",
             "name": "L2SquaredDistance"}]},
        {"kind": "FunctionDecl", "id": "0x500", "name": "G",
         "loc": {"file": V, "line": 50}, "inner": [
             {"kind": "CompoundStmt", "inner": [
                 {"kind": "ForStmt",
                  "range": {"begin": {"line": 51}, "end": {"line": 56}},
                  "inner": [{"kind": "CompoundStmt", "inner": outer_body}]},
             ]},
         ]},
    ]}


def unit_walker_amortized():
    ta = mba.TuAnalysis(mba.REPO)
    ta.walk(_nest_tu(with_charge=True))
    check(not [f for f in ta.findings if f.rule == "budget-charge"],
          "a charge in the enclosing loop forgives the inner kernel loop")
    ta = mba.TuAnalysis(mba.REPO)
    ta.walk(_nest_tu(with_charge=False))
    got = [(f.line, f.rule) for f in ta.findings]
    check(got == [(52, "budget-charge")],
          "an uncharged nest reports the innermost kernel loop only "
          "(got %s)" % got)


def unit_walker_batch_kernel():
    """DistanceFunction::Many scores rows as the pair form does: a loop
    around it with no charge is a budget-charge finding."""
    V = _vpath()
    many_call = {
        "kind": "CXXMemberCallExpr",
        "range": {"begin": {"line": 62}, "end": {}},
        "inner": [{"kind": "MemberExpr", "name": "Many",
                   "referencedMemberDecl": "0x601",
                   "inner": [{"kind": "DeclRefExpr", "referencedDecl": {
                       "id": "0x602", "kind": "VarDecl", "name": "dist",
                       "type": {"qualType":
                                "const mbi::DistanceFunction"}}}]}]}
    tu = {"kind": "TranslationUnitDecl", "inner": [
        {"kind": "NamespaceDecl", "name": "mbi", "inner": [
            {"kind": "CXXRecordDecl", "name": "DistanceFunction",
             "completeDefinition": True, "id": "0x600", "inner": [
                 {"kind": "CXXMethodDecl", "id": "0x601", "name": "Many"}]}]},
        {"kind": "FunctionDecl", "id": "0x610", "name": "H",
         "loc": {"file": V, "line": 60}, "inner": [
             {"kind": "CompoundStmt", "inner": [
                 {"kind": "ForStmt",
                  "range": {"begin": {"line": 61}, "end": {"line": 63}},
                  "inner": [{"kind": "CompoundStmt",
                             "inner": [many_call]}]}]}]},
    ]}
    ta = mba.TuAnalysis(mba.REPO)
    ta.walk(tu)
    got = [(f.line, f.rule) for f in ta.findings]
    check(got == [(61, "budget-charge")],
          "an uncharged loop around DistanceFunction::Many is reported "
          "(got %s)" % got)


def run_unit():
    unit_scoping()
    unit_type_parsing()
    unit_ignore_status()
    unit_waivers()
    unit_ratchet()
    unit_walker()
    unit_walker_charged()
    unit_walker_amortized()
    unit_walker_batch_kernel()


# ---------------------------------------------------------------------------
# fixtures suite


def run_fixtures() -> int:
    clang = mba.find_clang(None)
    if clang is None or mba.probe_clang(clang) is not None:
        print("mbi_analyzer selftest: no clang with -ast-dump=json support "
              "on this host; skipping the fixture suite (it runs in the CI "
              "lint job).")
        return 77

    fixtures = sorted(TESTDATA.glob("*.cc"))
    check(len(fixtures) >= 14, "fixture corpus present (%d)" % len(fixtures))

    expected = set()
    for fx in fixtures:
        rel = str(fx.relative_to(mba.REPO))
        for i, line in enumerate(fx.read_text().splitlines(), start=1):
            m = DIRECTIVE_RE.search(line)
            if m:
                expected.add((rel, i, m.group(1)))

    with tempfile.TemporaryDirectory() as td:
        ratchet = pathlib.Path(td) / "ratchet.json"
        ratchet.write_text(json.dumps({"lock_coverage": []}))
        argv = []
        for fx in fixtures:
            argv += ["--check-file", str(fx)]
        argv += ["--ratchet", str(ratchet), "--flags", "-std=c++20",
                 "-I", str(mba.REPO / "src")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mba.main(argv)
        out = buf.getvalue()

    check(rc == 1, "analyzer exits 1 on fixture findings (got %d)\n%s"
          % (rc, out))
    got = set()
    for line in out.splitlines():
        m = FINDING_RE.match(line)
        if m:
            got.add((m.group(1), int(m.group(2)), m.group(3)))

    missing = expected - got
    surplus = {g for g in got if g not in expected}
    for f, ln, rule in sorted(missing):
        check(False, "expected finding not produced: %s:%d [%s]"
              % (f, ln, rule))
    for f, ln, rule in sorted(surplus):
        check(False, "unexpected finding: %s:%d [%s]" % (f, ln, rule))
    return 0


def main() -> int:
    suite = sys.argv[1] if len(sys.argv) > 1 else "all"
    rc = 0
    if suite in ("unit", "all"):
        run_unit()
    if suite in ("fixtures", "all"):
        rc = run_fixtures()
        if rc == 77 and suite == "fixtures" and not _failures:
            return 77
        if rc == 77:
            rc = 0
    if _failures:
        print("\nmbi_analyzer selftest: %d failure(s)" % len(_failures))
        return 1
    print("mbi_analyzer selftest: OK (%s)" % suite)
    return rc


if __name__ == "__main__":
    sys.exit(main())
