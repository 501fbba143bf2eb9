"""Run configuration shared by the CLI and the verification harness."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import DEFAULT_CLOSURE_CAP, DEFAULT_SECTION_CAP


@dataclass(frozen=True)
class RunConfig:
    """Caps and knobs for property checks.

    The seed governs only oracle sampling (random matrices in the
    numerical suites); group-theoretic checks are exhaustive and
    seed-independent.  The seed is echoed into every emitted report.
    """

    closure_cap: int = DEFAULT_CLOSURE_CAP
    section_cap: int = DEFAULT_SECTION_CAP
    power_cap: int = 2
    output: str = "text"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("closure_cap", "section_cap", "power_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.output not in ("text", "structured"):
            raise ValueError("output must be 'text' or 'structured'")

    def to_json(self) -> dict:
        return dict(vars(self))  # the fields, in order: all plain values
