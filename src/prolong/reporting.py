"""Structured pass/fail reports shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckEntry:
    """One verified condition: a label, the verdict, and an optional witness."""

    name: str
    ok: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "ok": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    """An ordered list of checks with an overall verdict."""

    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, name: str, ok: bool, witness: str | None = None) -> None:
        self.entries.append(CheckEntry(name, ok, witness))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def require(self, error: type[Exception], message: str) -> None:
        """Raise error("message: <names of the failed checks>") unless all pass."""
        if not self.ok:
            bad = [e.name for e in self.entries if not e.ok]
            raise error(f"{message}: {', '.join(bad)}")

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [e.as_dict() for e in self.entries]}
