"""Minimal SARIF 2.1.0 emitter for dvx_analyze findings (CI annotation)."""

from __future__ import annotations

import json

from .rules import Finding

_RULE_DESCRIPTIONS = {
    "layering": "Include-layering DAG violation (rules.toml [layering])",
    "report-determinism": "Unordered-container iteration feeding a report path",
    "determinism": "Banned nondeterminism source (former det-lint)",
}


def to_sarif(findings: list[Finding]) -> str:
    rule_ids = sorted({f.rule for f in findings} | set(_RULE_DESCRIPTIONS))
    doc = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "dvx_analyze",
                    "informationUri": "tools/dvx_analyze/rules.toml",
                    "rules": [{
                        "id": rid,
                        "shortDescription": {
                            "text": _RULE_DESCRIPTIONS.get(rid, rid)},
                    } for rid in rule_ids],
                }
            },
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": f.line, "startColumn": f.col},
                    }
                }],
            } for f in findings],
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
