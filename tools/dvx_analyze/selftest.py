#!/usr/bin/env python3
"""Self-test for the dvx_analyze tokenizer and rule engine.

Plain python3 — no pytest in the build image. Each case builds a throwaway
tree under a tempdir, runs the engine over it, and asserts on the findings.
Run directly (`python3 tools/dvx_analyze/selftest.py`) or via the
`dvx_analyze_selftest` ctest. Exit status: 0 pass, 1 fail.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from dvx_analyze import cli, rules, tokenizer  # noqa: E402

_RULES_TOML = pathlib.Path(__file__).resolve().parent / "rules.toml"

_CASES = []


def case(fn):
    _CASES.append(fn)
    return fn


def _run_tree(tmp: pathlib.Path, files: dict[str, str],
              groups: list[str]) -> rules.Context:
    for rel, body in files.items():
        p = tmp / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(body, encoding="utf-8")
    roots = sorted({str(tmp / pathlib.Path(rel).parts[0]) for rel in files})
    return cli.run(roots, groups, _RULES_TOML, tmp)


def _rules_of(ctx: rules.Context) -> list[str]:
    return [f.rule for f in ctx.findings]


# --------------------------------------------------------------------------
# tokenizer
# --------------------------------------------------------------------------

@case
def tokenizer_strips_comments_and_strings():
    stripped, comments = tokenizer.strip_lines([
        'int x = 1; // trailing rand( note',
        'const char* s = "rand( inside string // not a comment";',
        '/* block rand( */ int y = 2; /* open',
        'still comment */ int z = 3;',
    ])
    assert "rand(" not in "\n".join(stripped), stripped
    assert "int x = 1;" in stripped[0]
    assert "int y = 2;" in stripped[2]
    assert "int z = 3;" in stripped[3]
    assert "trailing rand( note" in comments[1]
    assert 2 not in comments, comments  # the // lived inside a string
    assert "block rand(" in comments[3]
    # Columns preserved: 'int z' sits after the blanked comment tail.
    assert stripped[3].index("int z") == 17, stripped[3]


# --------------------------------------------------------------------------
# layering
# --------------------------------------------------------------------------

@case
def layering_forbidden_include_caught():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            "src/mpi/comm.cpp": '#include "ib/topology.hpp"\nint x;\n',
        }, ["layering"])
        assert _rules_of(ctx) == ["layering"], ctx.findings
        f = ctx.findings[0]
        assert f.line == 1 and "must never include" in f.message, f


@case
def layering_unreachable_vs_allowed():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            # sim -> vic: not reachable (and forbidden); sim -> check: fine.
            "src/sim/engine.cpp":
                '#include "vic/vic.hpp"\n#include "check/check.hpp"\n',
            # tests/ are exempt from layering entirely.
            "tests/test_x.cpp": '#include "ib/topology.hpp"\n',
        }, ["layering"])
        assert len(ctx.findings) == 1, ctx.findings
        assert ctx.findings[0].path == "src/sim/engine.cpp"


@case
def layering_suppression_honored():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            "src/net/bridge.hpp":
                "// dvx-analyze: allow(layering) -- transitional shim, torn"
                " out with PR 9\n"
                '#include "mpi/comm.hpp"\n',
        }, ["layering"])
        assert not ctx.findings, ctx.findings
        assert len(ctx.suppressions) == 1
        assert ctx.suppressions[0].justification.startswith("transitional")
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            "src/net/bridge.hpp":
                "// dvx-analyze: allow(layering)\n"
                '#include "mpi/comm.hpp"\n',
        }, ["layering"])
        # Bare allow: both the original finding AND the bare-suppression one.
        assert _rules_of(ctx) == ["layering", "layering"], ctx.findings
        assert any("without a justification" in f.message
                   for f in ctx.findings), ctx.findings
        assert not ctx.suppressions, ctx.suppressions


@case
def layering_serve_is_backend_neutral():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            # serve -> ib is a hard negative edge (backend neutrality);
            # serve -> dvapi rides the facade and is fine.
            "src/serve/session.cpp":
                '#include "ib/topology.hpp"\n'
                '#include "dvapi/dv.hpp"\n',
        }, ["layering"])
        assert _rules_of(ctx) == ["layering"], ctx.findings
        f = ctx.findings[0]
        assert f.line == 1 and "must never include" in f.message, f


# --------------------------------------------------------------------------
# determinism (folded det-lint) + report-determinism
# --------------------------------------------------------------------------

@case
def determinism_banned_token_and_allow():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            "src/sim/bad.cpp":
                "int a = rand();\n"
                "auto t0 = std::chrono::steady_clock::now();"
                "  // det-lint: allow(system_clock) -- host progress only\n"
                "// rand( in a comment is fine\n",
        }, ["determinism"])
        assert _rules_of(ctx) == ["determinism"], ctx.findings
        assert "'rand('" in ctx.findings[0].message
        assert len(ctx.suppressions) == 1


@case
def determinism_paired_draws_in_one_argument_list():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            "tests/test_draws.cpp":
                "auto a = Complex(r.uniform(), r.uniform());\n"
                "Complex b = {r.uniform(), r.uniform()};\n"
                "auto c = Complex(r.uniform(), s.uniform());\n"
                "auto d = g({r.chance(0.5), r.chance(0.5)}, 1) + r.below(2);\n"
                "sw.inject(static_cast<int>(r.below(32)),\n"
                "          static_cast<int>(r.below(32)));\n",
        }, ["determinism"])
        assert _rules_of(ctx) == ["determinism", "determinism"], ctx.findings
        assert [(f.line, f.col) for f in ctx.findings] == [(1, 31), (6, 28)], \
            ctx.findings
        assert "two draws from 'r'" in ctx.findings[0].message


@case
def report_determinism_range_for_caught():
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx = _run_tree(tmp, {
            "src/obs/agg.cpp":
                "std::unordered_map<int, int> hist;  "
                "// det-lint: allow(std::unordered_*) -- sorted before emit\n"
                "void emit() {\n"
                "  for (const auto& kv : hist) { use(kv); }\n"
                "}\n",
        }, ["report-determinism"])
        assert _rules_of(ctx) == ["report-determinism"], ctx.findings
        assert "'hist'" in ctx.findings[0].message


@case
def findings_sorted_and_deterministic():
    files = {
        "src/sim/b.cpp": "int a = rand();\nint b = rand();\n",
        "src/sim/a.cpp": "int c = rand();\n",
    }
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx1 = _run_tree(tmp, files, ["determinism"])
        texts1 = [f.text() for f in ctx1.findings]
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ctx2 = _run_tree(tmp, files, ["determinism"])
        texts2 = [f.text() for f in ctx2.findings]
    assert texts1 == texts2, (texts1, texts2)
    assert [f.path for f in ctx1.findings] == \
        ["src/sim/a.cpp", "src/sim/b.cpp", "src/sim/b.cpp"]


def main() -> int:
    failures = 0
    for fn in _CASES:
        try:
            fn()
            print(f"  PASS {fn.__name__}")
        except Exception:
            failures += 1
            print(f"  FAIL {fn.__name__}")
            traceback.print_exc()
    print(f"dvx_analyze selftest: {len(_CASES) - failures}/{len(_CASES)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
