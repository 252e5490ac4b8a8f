"""dvx_analyze: static layering and determinism analysis (DESIGN.md §13).

Rule engine over a lightweight C++ tokenizer — no libclang — driven by the
declarative manifest rules.toml. Run as `python3 tools/dvx_analyze`.
"""
