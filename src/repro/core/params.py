"""Machine configuration and Table 1 resource scaling.

The paper sized physical register files and instruction windows by
preliminary simulation "to achieve reasonable (near saturation) processor
performance for 1, 2, 4 and 8 threads" (their Table 1, largely illegible
in the scanned copy).  ``scaled_resources`` encodes our equivalent sizing,
validated by the saturation-sweep ablation bench
(``benchmarks/bench_table1_scaling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.registers import RegisterClass


@dataclass(frozen=True)
class Resources:
    """Shared renaming/window resources for one thread count."""

    rename_regs: dict[RegisterClass, int]
    queue_sizes: dict[str, int]          # keys: int, fp, mem, simd
    graduation_window: int


#: Near-saturation resource sizing per thread count (our Table 1).
_RESOURCE_TABLE: dict[int, Resources] = {
    1: Resources(
        rename_regs={
            RegisterClass.INT: 48,
            RegisterClass.FP: 32,
            RegisterClass.MMX: 32,
            RegisterClass.STREAM: 16,
            RegisterClass.ACC: 4,
        },
        queue_sizes={"int": 32, "fp": 16, "mem": 32, "simd": 16},
        graduation_window=64,
    ),
    2: Resources(
        rename_regs={
            RegisterClass.INT: 80,
            RegisterClass.FP: 48,
            RegisterClass.MMX: 48,
            RegisterClass.STREAM: 24,
            RegisterClass.ACC: 8,
        },
        queue_sizes={"int": 36, "fp": 20, "mem": 36, "simd": 20},
        graduation_window=96,
    ),
    4: Resources(
        rename_regs={
            RegisterClass.INT: 144,
            RegisterClass.FP: 80,
            RegisterClass.MMX: 80,
            RegisterClass.STREAM: 40,
            RegisterClass.ACC: 16,
        },
        queue_sizes={"int": 40, "fp": 24, "mem": 40, "simd": 24},
        graduation_window=160,
    ),
    8: Resources(
        rename_regs={
            RegisterClass.INT: 256,
            RegisterClass.FP: 128,
            RegisterClass.MMX: 128,
            RegisterClass.STREAM: 64,
            RegisterClass.ACC: 24,
        },
        queue_sizes={"int": 48, "fp": 32, "mem": 48, "simd": 32},
        graduation_window=224,
    ),
}


def scaled_resources(n_threads: int) -> Resources:
    """Table 1 resources for a thread count (interpolating odd counts)."""
    if n_threads in _RESOURCE_TABLE:
        return _RESOURCE_TABLE[n_threads]
    for candidate in sorted(_RESOURCE_TABLE):
        if candidate >= n_threads:
            return _RESOURCE_TABLE[candidate]
    return _RESOURCE_TABLE[max(_RESOURCE_TABLE)]


@dataclass(frozen=True)
class SMTConfig:
    """Full machine configuration (paper section 3).

    The core fetches up to two groups of four instructions per cycle,
    issues up to 4 integer, 4 memory and 4 FP operations per cycle, and —
    depending on the ISA — up to 2 MMX instructions per cycle (two packed
    FUs) or 1 MOM instruction per cycle into a vector unit with two
    parallel pipes.
    """

    isa: str = "mmx"
    n_threads: int = 1
    fetch_groups: int = 2
    fetch_group_size: int = 4
    dispatch_width: int = 8
    commit_width: int = 8
    issue_int: int = 4
    issue_mem: int = 4
    issue_fp: int = 4
    #: SIMD queue issue width: 2 for MMX (two FUs), 1 for MOM.
    issue_simd: int = field(default=-1)
    #: Parallel pipes of the MOM vector unit (sub-instructions per cycle).
    vector_lanes: int = 2
    decode_buffer: int = 16
    mispredict_redirect: int = 3
    resources: Resources = field(default=None)
    #: Enable the runtime invariant sanitizer
    #: (:mod:`repro.verify.sanitizer`).  Off by default: when disabled
    #: the hooks are a single attribute test, so there is no overhead.
    sanitize: bool = False
    #: Statistical sampling (SMARTS-style): ``(ff_len, window_len,
    #: warmup_len)`` in committed (stream-expanded) instructions.  The
    #: run alternates a functional fast-forward of ``ff_len``
    #: instructions (branch predictor and cache tags warmed, no pipeline
    #: timing) with a detailed stretch of ``warmup_len`` unmeasured plus
    #: ``window_len`` measured instructions; per-window EIPC samples are
    #: aggregated into a mean and 95 % confidence interval.  ``None``
    #: (the default) runs full detail end to end.
    sampling: tuple[int, int, int] | None = None
    #: Observability (:mod:`repro.obs`): ``None`` (default) disables all
    #: event collection — every hook is a single attribute test, the
    #: same zero-overhead contract as ``sanitize``.  ``True`` records
    #: the full pipeline event stream, ``"metrics"`` keeps only the
    #: metrics registry, or pass a ready
    #: :class:`~repro.obs.events.PipelineObserver`.
    observe: object = None
    #: Pipeline engine selection.  ``"object"`` runs the reference
    #: engine (:class:`~repro.core.smt.SMTProcessor` object graph);
    #: ``"flat"`` runs the table-driven flat-buffer engine
    #: (:mod:`repro.core.engine_flat`), bit-identical by contract;
    #: ``"auto"`` (the default) picks the flat engine only when its
    #: compiled kernel is installed, else the object engine.  Runs with
    #: ``sanitize`` or ``observe`` enabled always use the object engine
    #: (the hooks only exist there; see docs/MODEL.md).
    backend: str = "auto"

    def __post_init__(self):
        if self.backend not in ("object", "flat", "auto"):
            raise ValueError(
                "backend must be 'object', 'flat' or 'auto', "
                f"not {self.backend!r}"
            )
        if self.observe not in (None, True, False, "metrics") and not (
            hasattr(self.observe, "on_fetch")
            and hasattr(self.observe, "tallies")
        ):
            raise ValueError(
                "observe must be None, True, 'metrics', or a "
                f"PipelineObserver-like object, not {self.observe!r}"
            )
        if self.isa not in ("mmx", "mom"):
            raise ValueError(f"unknown ISA {self.isa!r}")
        if self.n_threads < 1:
            raise ValueError("need at least one thread context")
        if self.sampling is not None:
            sampling = tuple(int(v) for v in self.sampling)
            if len(sampling) != 3:
                raise ValueError(
                    "sampling must be (ff_len, window_len, warmup_len)"
                )
            ff_len, window_len, warmup_len = sampling
            if window_len < 1:
                raise ValueError("sampling window must be positive")
            if ff_len < 0 or warmup_len < 0:
                raise ValueError("sampling lengths must be non-negative")
            object.__setattr__(self, "sampling", sampling)
        if self.issue_simd == -1:
            object.__setattr__(
                self, "issue_simd", 2 if self.isa == "mmx" else 1
            )
        if self.resources is None:
            object.__setattr__(
                self, "resources", scaled_resources(self.n_threads)
            )

    @property
    def fetch_width(self) -> int:
        return self.fetch_groups * self.fetch_group_size
