"""Rule implementations for dvx_analyze, driven by rules.toml.

Every rule yields Finding objects; the CLI sorts, prints and summarizes
them. Suppressions share one grammar:

    // dvx-analyze: allow(<rule>) -- <justification>
    // det-lint: allow(<token>) -- <justification>        (legacy, determinism)

A suppression WITHOUT a justification is itself a finding: the analyzer's
contract is that every exception in the tree explains itself.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from . import tokenizer

ALLOW_RE = re.compile(r"dvx-analyze:\s*allow\(([^)]*)\)\s*(.*)")
DET_ALLOW_RE = re.compile(r"det-lint:\s*allow\(([^)]*)\)\s*(.*)")


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Suppression:
    path: str
    line: int
    rule: str
    justification: str


class Context:
    """Shared scan state: config, per-file scans, findings, suppressions."""

    def __init__(self, config: dict, repo_root: pathlib.Path):
        self.config = config
        self.repo_root = repo_root
        self.findings: list[Finding] = []
        self.suppressions: list[Suppression] = []
        self.scans: dict[pathlib.Path, tokenizer.FileScan] = {}
        self._bare_seen: set[tuple[str, int, str]] = set()

    def rel(self, path: pathlib.Path) -> str:
        try:
            return path.resolve().relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.as_posix()

    def add(self, path: pathlib.Path, line: int, col: int, rule: str, msg: str) -> None:
        self.findings.append(Finding(self.rel(path), line, col, rule, msg))

    # --- suppression helpers -------------------------------------------------

    def allows(self, scan: tokenizer.FileScan, lines: range, rule: str) -> bool:
        """True when a justified allow(<rule>) appears on any line in `lines`.

        Unjustified allows are recorded as findings exactly once (keyed on
        the comment line) and do NOT suppress.
        """
        for ln in lines:
            comment = scan.comments.get(ln)
            if not comment:
                continue
            m = ALLOW_RE.search(comment)
            if m is None:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            if rule not in rules and "all" not in rules:
                continue
            justification = m.group(2).strip().lstrip("-— ").strip()
            if not justification:
                self._flag_bare(scan, ln, rule)
                return False
            self.suppressions.append(
                Suppression(self.rel(scan.path), ln, rule, justification))
            return True
        return False

    def det_allowed(self, scan: tokenizer.FileScan, line: int, token: str) -> bool:
        """Legacy det-lint allow tag; same justification contract."""
        comment = scan.comments.get(line)
        if not comment:
            return False
        m = DET_ALLOW_RE.search(comment)
        if m is None:
            return False
        tokens = {t.strip() for t in m.group(1).split(",")}
        if token not in tokens and "all" not in tokens:
            return False
        justification = m.group(2).strip().lstrip("-— ").strip()
        if not justification:
            self._flag_bare(scan, line, "determinism")
            return False
        self.suppressions.append(
            Suppression(self.rel(scan.path), line, "determinism", justification))
        return True

    def _flag_bare(self, scan: tokenizer.FileScan, line: int, rule: str) -> None:
        rel = self.rel(scan.path)
        marker = (rel, line, "suppression")
        if marker in self._bare_seen:
            return
        self._bare_seen.add(marker)
        self.findings.append(Finding(
            rel, line, 1, rule,
            "suppression without a justification: append `-- <why this is safe>`"))


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def _reachable(layers: dict[str, list[str]]) -> dict[str, set[str]]:
    """Reflexive-transitive closure of the declared direct edges."""
    reach = {name: {name} for name in layers}
    changed = True
    while changed:
        changed = False
        for name, direct in layers.items():
            for dep in direct:
                addition = reach.get(dep, {dep}) - reach[name]
                if addition:
                    reach[name] |= addition
                    changed = True
    return reach


def layer_of(ctx: Context, rel_path: str) -> str | None:
    """The layer a repo-relative src/ path belongs to (None: unlayered)."""
    overrides = ctx.config.get("layering", {}).get("file_overrides", {})
    if rel_path in overrides:
        return overrides[rel_path]
    parts = pathlib.PurePosixPath(rel_path).parts
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def check_layering(ctx: Context, scan: tokenizer.FileScan) -> None:
    cfg = ctx.config.get("layering", {})
    layers: dict[str, list[str]] = cfg.get("layers", {})
    if not layers:
        return
    rel = ctx.rel(scan.path)
    src_layer = layer_of(ctx, rel)
    if src_layer is None or src_layer not in layers:
        return  # tests/bench/tools are applications of the whole stack
    reach = _reachable(layers)[src_layer]
    forbidden = set(cfg.get("forbidden", {}).get(src_layer, []))
    for inc in scan.includes:
        target_layer = layer_of(ctx, "src/" + inc.target)
        if target_layer is None or target_layer not in layers:
            continue  # relative or non-layered include
        if target_layer in forbidden:
            if not ctx.allows(scan, range(inc.line - 1, inc.line + 1), "layering"):
                ctx.add(scan.path, inc.line, inc.col + 1, "layering",
                        f"forbidden include: layer '{src_layer}' must never "
                        f"include layer '{target_layer}' ({inc.target})")
            continue
        if target_layer not in reach:
            if not ctx.allows(scan, range(inc.line - 1, inc.line + 1), "layering"):
                ctx.add(scan.path, inc.line, inc.col + 1, "layering",
                        f"layer '{src_layer}' may not include layer "
                        f"'{target_layer}' ({inc.target}); allowed: "
                        f"{', '.join(sorted(reach))} (see rules.toml)")


# ---------------------------------------------------------------------------
# report-determinism
# ---------------------------------------------------------------------------

def check_report_determinism(ctx: Context, scan: tokenizer.FileScan) -> None:
    cfg = ctx.config.get("report_determinism", {})
    pattern = cfg.get("container_pattern")
    if not pattern:
        return
    decl_re = re.compile(pattern + r"\s*<[^;{]*>\s+([A-Za-z_]\w*)")
    text = scan.stripped_text()
    names = {m.group(1) for m in decl_re.finditer(text)}
    if not names:
        return
    for name in sorted(names):
        for m in re.finditer(r"for\s*\([^();]*:\s*" + re.escape(name) + r"\b", text):
            line, col = scan.line_of_offset(m.start())
            if ctx.allows(scan, range(line - 1, line + 1), "report-determinism"):
                continue
            ctx.add(scan.path, line, col, "report-determinism",
                    f"range-for over unordered container '{name}': "
                    "implementation-defined iteration order leaks into any "
                    "report it feeds; sort into a vector or use std::map")


# ---------------------------------------------------------------------------
# determinism (the folded-in det-lint bans)
# ---------------------------------------------------------------------------

def check_determinism(ctx: Context, scan: tokenizer.FileScan) -> None:
    banned = ctx.config.get("determinism", {}).get("banned", [])
    for lineno, code in enumerate(scan.stripped, start=1):
        for entry in banned:
            for m in re.finditer(entry["pattern"], code):
                if ctx.det_allowed(scan, lineno, entry["token"]):
                    continue
                if ctx.allows(scan, range(lineno, lineno + 1), "determinism"):
                    continue
                ctx.add(scan.path, lineno, m.start() + 1, "determinism",
                        f"banned token '{entry['token']}': {entry['reason']}")
    check_paired_draws(ctx, scan)


def check_paired_draws(ctx: Context, scan: tokenizer.FileScan) -> None:
    """Two draws from one generator in different arguments of one call."""
    methods = ctx.config.get("determinism", {}).get("paired_draws", {}).get("methods", [])
    if not methods:
        return
    token_re = re.compile(
        r"(?P<gen>[A-Za-z_]\w*)\s*(?:\.|->)\s*(?:"
        + "|".join(re.escape(m) for m in methods)
        + r")\s*(?=\()|(?P<bracket>[()\[\]{},])")
    text = scan.stripped_text()
    # One frame per open bracket: [bracket, argument index,
    # {generator: argument index of its first draw}, generators reported].
    stack: list[list] = []
    for m in token_re.finditer(text):
        gen, bracket = m.group("gen"), m.group("bracket")
        if gen is not None:
            for frame in stack:
                if frame[0] != "(":
                    continue
                first = frame[2].setdefault(gen, frame[1])
                if first == frame[1] or gen in frame[3]:
                    continue
                frame[3].add(gen)
                line, col = scan.line_of_offset(m.start())
                if ctx.allows(scan, range(line - 1, line + 1), "determinism"):
                    continue
                ctx.add(scan.path, line, col, "determinism",
                        f"two draws from '{gen}' in one argument list: the "
                        "order in which C++ evaluates arguments is "
                        "unspecified, so compilers draw different values; "
                        "draw into named locals first")
        elif bracket in "([{":
            stack.append([bracket, 0, {}, set()])
        elif bracket == ",":
            if stack:
                stack[-1][1] += 1
        elif stack:
            stack.pop()


RULE_GROUPS = ["layering", "report-determinism", "determinism"]
