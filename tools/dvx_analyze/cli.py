"""dvx_analyze command line: static layering and determinism analysis.

Usage:
    python3 tools/dvx_analyze [roots...] [--rule GROUP]... [--sarif FILE]

Walks the configured roots (default: the [analyze].roots of rules.toml),
runs the enabled rule groups, and prints findings as
`path:line:col: [rule] message`. Exit status: 0 clean, 1 findings,
2 usage/configuration error. `--rule determinism` runs the determinism bans
alone.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tomllib

from . import rules, sarif, tokenizer

_PKG_DIR = pathlib.Path(__file__).resolve().parent


def _load_config(path: pathlib.Path) -> dict:
    with open(path, "rb") as f:
        return tomllib.load(f)


def _collect_files(roots: list[str], extensions: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for root in roots:
        p = pathlib.Path(root)
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            for ext in extensions:
                files.extend(sorted(p.rglob(f"*{ext}")))
        else:
            raise FileNotFoundError(root)
    return sorted(set(files))


def run(
    roots: list[str],
    groups: list[str],
    config_path: pathlib.Path,
    repo_root: pathlib.Path,
) -> rules.Context:
    """Scans `roots` with the rule groups in `groups`; returns the context."""
    config = _load_config(config_path)
    extensions = config.get("analyze", {}).get("extensions", [".hpp", ".cpp"])

    ctx = rules.Context(config, repo_root.resolve())
    files = _collect_files(roots, extensions)
    for f in files:
        ctx.scans[f] = tokenizer.scan_file(f)

    # The rules, file by file in sorted order.
    for f in files:
        scan = ctx.scans[f]
        if "layering" in groups:
            rules.check_layering(ctx, scan)
        if "report-determinism" in groups:
            rules.check_report_determinism(ctx, scan)
        if "determinism" in groups:
            rules.check_determinism(ctx, scan)

    ctx.findings.sort(key=lambda x: (x.path, x.line, x.col, x.rule, x.message))
    return ctx


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dvx_analyze", description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*",
                        help="files or directories to scan "
                             "(default: [analyze].roots of rules.toml)")
    parser.add_argument("--rule", dest="groups", action="append",
                        choices=rules.RULE_GROUPS,
                        help="enable only this rule group (repeatable; "
                             "default: all groups)")
    parser.add_argument("--rules", dest="config",
                        default=str(_PKG_DIR / "rules.toml"),
                        help="rule manifest (default: the package's rules.toml)")
    parser.add_argument("--sarif", help="also write findings as SARIF 2.1.0")
    parser.add_argument("--repo-root", default=str(_PKG_DIR.parent.parent),
                        help="repository root findings are reported relative to")
    args = parser.parse_args(argv)

    config_path = pathlib.Path(args.config)
    if not config_path.is_file():
        print(f"error: no rule manifest at {config_path}", file=sys.stderr)
        return 2
    groups = args.groups or list(rules.RULE_GROUPS)
    roots = args.roots
    if not roots:
        cfg = _load_config(config_path)
        repo = pathlib.Path(args.repo_root)
        roots = [str(repo / r) for r in cfg.get("analyze", {}).get("roots", ["src"])
                 if (repo / r).exists()]

    try:
        ctx = run(roots, groups, config_path, pathlib.Path(args.repo_root))
    except FileNotFoundError as err:
        print(f"error: no such file or directory: {err}", file=sys.stderr)
        return 2

    for f in ctx.findings:
        print(f.text())

    suppressions = sorted({(s.path, s.line, s.rule, s.justification)
                           for s in ctx.suppressions})
    summary_stream = sys.stderr if ctx.findings else sys.stdout
    print(f"dvx-analyze: {len(ctx.findings)} finding(s), "
          f"{len(suppressions)} justified suppression(s), "
          f"{len(ctx.scans)} file(s) scanned "
          f"[{', '.join(groups)}]", file=summary_stream)
    for path, line, rule, justification in suppressions:
        print(f"  suppressed [{rule}] {path}:{line} -- {justification}",
              file=summary_stream)

    if args.sarif:
        pathlib.Path(args.sarif).write_text(sarif.to_sarif(ctx.findings),
                                            encoding="utf-8")

    return 1 if ctx.findings else 0
