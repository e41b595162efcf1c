"""Result containers for full-system simulations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.stats import safe_div


@dataclass(frozen=True)
class CoreResult:
    """Measured behaviour of one core over the measurement window."""

    core: int
    workload: str
    instructions: int
    cycles: float
    l2_accesses: int
    l2_misses: int

    @property
    def cpi(self) -> float:
        return safe_div(self.cycles, self.instructions)

    @property
    def miss_rate(self) -> float:
        return safe_div(self.l2_misses, self.l2_accesses)

    @property
    def mpki(self) -> float:
        """L2 misses per kilo-instruction."""
        return safe_div(1000.0 * self.l2_misses, self.instructions)


@dataclass(frozen=True)
class EpochRecord:
    """One dynamic-repartitioning decision."""

    time: float
    ways: tuple[int, ...]
    center_banks: tuple[int, ...] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None


@dataclass
class SystemResult:
    """Aggregate outcome of one simulation run."""

    scheme: str
    cores: list[CoreResult] = field(default_factory=list)
    migrations: int = 0
    writebacks: int = 0
    epochs: list[EpochRecord] = field(default_factory=list)
    #: decision-guard log of one run: (time, kind, detail, mode) tuples.
    guard_events: list[tuple[float, str, str, str]] = field(default_factory=list)
    #: trace event stream of one traced run (empty when tracing is off).
    events: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serialisable form (for sweep checkpoints)."""
        payload = {
            "scheme": self.scheme,
            "cores": [
                [c.core, c.workload, c.instructions, c.cycles,
                 c.l2_accesses, c.l2_misses]
                for c in self.cores
            ],
            "migrations": self.migrations,
            "writebacks": self.writebacks,
            "epochs": [
                [e.time, list(e.ways),
                 list(e.center_banks) if e.center_banks is not None else None,
                 [list(p) for p in e.pairs] if e.pairs is not None else None]
                for e in self.epochs
            ],
            "guard_events": [list(e) for e in self.guard_events],
        }
        # keep untraced checkpoints byte-identical to the pre-tracing format
        if self.events:
            payload["events"] = self.events
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "SystemResult":
        """Inverse of :meth:`to_dict` (bit-exact round trip via JSON).

        A ``telemetry`` key, the metrics snapshot that traced payloads
        of earlier versions carried, is ignored, so their checkpoints
        still resume."""
        return cls(
            scheme=data["scheme"],
            cores=[CoreResult(*row) for row in data["cores"]],
            migrations=data["migrations"],
            writebacks=data["writebacks"],
            epochs=[
                EpochRecord(
                    time,
                    tuple(ways),
                    tuple(centers) if centers is not None else None,
                    tuple(tuple(p) for p in pairs) if pairs is not None else None,
                )
                for time, ways, centers, pairs in data["epochs"]
            ],
            guard_events=[tuple(e) for e in data.get("guard_events", [])],
            events=list(data.get("events", [])),
        )

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def total_accesses(self) -> int:
        return sum(c.l2_accesses for c in self.cores)

    @property
    def total_misses(self) -> int:
        return sum(c.l2_misses for c in self.cores)

    @property
    def miss_rate(self) -> float:
        return safe_div(self.total_misses, self.total_accesses)

    @property
    def mean_cpi(self) -> float:
        """Arithmetic mean of per-core CPI (the paper reports per-set CPI
        relative to the no-partition scheme; means keep cores equal-weight
        rather than instruction-weighted)."""
        if not self.cores:
            return 0.0
        return sum(c.cpi for c in self.cores) / len(self.cores)

    def core(self, idx: int) -> CoreResult:
        return self.cores[idx]
