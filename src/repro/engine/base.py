"""Execution-engine contract: pluggable scoring backends.

The timing side of a kernel (:meth:`ExtensionKernel._model`) and its
functional side (:meth:`ExtensionKernel._exact_scores`) are separable:
the modeled gpusim cost of a launch depends only on the job geometry
and the device, never on *how* the host process happens to compute the
scores.  An :class:`ExecutionEngine` exploits that split — it owns the
functional side only, so swapping engines changes wall-clock speed but
leaves every modeled millisecond, counter, metric snapshot, and trace
byte identical (``tests/test_engine.py`` pins the invariant).

Every registered engine carries an :class:`EngineCapabilities`
descriptor saying *what it computes*, not just how fast:

``exactness``
    ``"exact"`` engines reproduce the full-table optimum bit for bit
    (exact local engines: the whole result of
    :func:`repro.align.antidiagonal.sw_align`, endpoint included);
    ``"bounded"`` engines restrict the sweep (a band, an X-drop
    threshold) and may return a lower score on adversarial inputs.
``gap_model``
    ``"affine"`` (the paper's Eqs. 1-3) or ``"linear"``.
``endpoints``
    The boundary semantics: ``"local"`` (Smith-Waterman),
    ``"anchored"`` (seed extension from cell (0,0)),
    ``"semiglobal"`` (whole query, free reference ends) or
    ``"global"`` (Needleman-Wunsch).
``bound_params``
    The constructor parameters that parameterize a bounded engine
    (``("band",)``, ``("x",)``); empty for exact engines.  Results
    from two different bounds are different results — callers that
    cache or compare must key on these (see
    :func:`repro.serve.cache.cache_key`).

Callers *select by capability* instead of hard-coding module imports:
the QoS degradation ladder resolves its banded / x-drop tiers through
:func:`find_engines`.

The exact local backends that ship: ``batched`` (cross-query row
sweep, the default), ``reference`` (per-pair faithful dataflow,
:func:`repro.core.intra_query.saloba_extend_exact`, kept as the
audited oracle of the paper's kernel), and ``pruned`` (block-grid
sweep with CUDAlign-style block pruning).  All three return the same
:class:`~repro.align.matrix.AlignmentResult`: the best score, and on
a tie the cell with the smallest ``i + j``, then the smallest ``i``.
The bounded / alternative-endpoint family from :mod:`repro.align`
registers alongside them: ``banded``, ``xdrop``, ``semiglobal``, and
``nw`` (see :mod:`repro.engine.variants`).

Select one by name wherever a kernel is built (``AlignmentService``,
``WorkerSpec``/``AlignmentCluster``, ``--engine`` on the bench CLIs)
or pass an instance for a custom backend.  Bounded engines take their
bound inline in the spec string — ``"banded:band=16"``,
``"xdrop:x=50"`` — or as keyword arguments to :func:`resolve_engine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..align.antidiagonal import sw_align
from ..align.matrix import AlignmentResult
from ..align.scoring import ScoringScheme

__all__ = [
    "EngineCapabilities",
    "ExecutionEngine",
    "engine_capabilities",
    "engine_names",
    "fidelity_sample",
    "find_engines",
    "parse_engine_spec",
    "register_engine",
    "resolve_engine",
]

_EXACTNESS = ("exact", "bounded")
_GAP_MODELS = ("affine", "linear")
_ENDPOINTS = ("local", "anchored", "semiglobal", "global")


@dataclass(frozen=True)
class EngineCapabilities:
    """What a registered backend computes (see module docstring).

    Attributes
    ----------
    exactness:
        ``"exact"`` (bit-identical to the full-table optimum) or
        ``"bounded"`` (sweep restricted by ``bound_params``).
    gap_model:
        ``"affine"`` or ``"linear"``.
    endpoints:
        ``"local"`` / ``"anchored"`` / ``"semiglobal"`` / ``"global"``.
    bound_params:
        Names of the constructor parameters bounding the sweep, in the
        order the engine documents them.  Empty for exact engines.
    """

    exactness: str = "exact"
    gap_model: str = "affine"
    endpoints: str = "local"
    bound_params: tuple[str, ...] = ()

    def __post_init__(self):
        if self.exactness not in _EXACTNESS:
            raise ValueError(f"exactness must be one of {_EXACTNESS}")
        if self.gap_model not in _GAP_MODELS:
            raise ValueError(f"gap_model must be one of {_GAP_MODELS}")
        if self.endpoints not in _ENDPOINTS:
            raise ValueError(f"endpoints must be one of {_ENDPOINTS}")
        if self.exactness == "bounded" and not self.bound_params:
            raise ValueError("bounded engines must declare bound_params")
        if self.exactness == "exact" and self.bound_params:
            raise ValueError("exact engines cannot declare bound_params")


def fidelity_sample(
    engine, scoring: ScoringScheme, config=None, *, n: int, seed: int
) -> tuple[list, list[AlignmentResult]]:
    """A seeded job sample and the results *engine* must reproduce on it.

    The sample is ``n`` jobs: ``max(n // 2, 1)`` unique random pairs
    (references of 40-89 bp, queries of 30-79 bp) followed by repeats
    of them, so a service's cache and coalescing are exercised too.
    Exact local engines must return
    :func:`~repro.align.antidiagonal.sw_align`'s results; any other
    engine must return its own direct ``score_batch`` output.  Callers
    compare whole results, endpoints included.
    """
    if n <= 0:
        return [], []
    # Imported lazily: the baselines package imports the kernels, which
    # import this module.
    from ..baselines.base import ExtensionJob

    eng = resolve_engine(engine)
    rng = np.random.default_rng(seed + 1)
    unique = [
        ExtensionJob(
            ref=rng.integers(0, 4, int(rng.integers(40, 90))).astype(np.uint8),
            query=rng.integers(0, 4, int(rng.integers(30, 80))).astype(np.uint8),
        )
        for _ in range(max(n // 2, 1))
    ]
    jobs = unique + [unique[int(i)] for i in rng.integers(0, len(unique), n - len(unique))]
    caps = eng.capabilities
    if caps.exactness == "exact" and caps.endpoints == "local":
        return jobs, [sw_align(j.ref, j.query, scoring) for j in jobs]
    return jobs, eng.score_batch(jobs, scoring, config=config)


class ExecutionEngine(ABC):
    """Functional scoring backend for a micro-batch of extension jobs.

    Exact local engines are bit-identical to
    :func:`repro.align.antidiagonal.sw_align`, endpoints included:
    best score, then smallest ``i + j``, then smallest ``i``.  Engines
    with other capability descriptors are bit-identical to *their own*
    per-pair reference algorithm in :mod:`repro.align` (endpoints
    included, so the QoS degraded tiers stay byte-reproducible).
    Engines never touch the timing model: modeled cost is charged by
    the kernel identically whichever engine runs.
    """

    #: Registry name; also used in benchmark/CLI output.
    name: str = "abstract"

    #: What this backend computes; exact/affine/local by default so
    #: pre-descriptor custom engines keep their old meaning.
    capabilities: EngineCapabilities = EngineCapabilities()

    @property
    def bound_values(self) -> dict[str, object]:
        """The engine's effective bound parameters, by name.

        Exact engines return ``{}``.  Bounded engines report the
        constructor values (``None`` meaning "derived per job"), which
        is what degraded-tier metadata and bound-aware cache keys
        record.
        """
        return {p: getattr(self, p, None) for p in self.capabilities.bound_params}

    @abstractmethod
    def score_batch(
        self,
        jobs,
        scoring: ScoringScheme,
        *,
        config=None,
    ) -> list[AlignmentResult]:
        """Alignment results for every job in the batch.

        *config* carries the :class:`~repro.core.config.SalobaConfig`
        of the calling kernel; engines that do not model the dataflow
        (the batched sweeps) may ignore it.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: dict[str, type[ExecutionEngine]] = {}


def register_engine(cls: type[ExecutionEngine]) -> type[ExecutionEngine]:
    """Class decorator adding an engine to the by-name registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("engine classes must define a concrete name")
    if not isinstance(cls.capabilities, EngineCapabilities):
        raise ValueError(
            f"engine {cls.name!r} must declare an EngineCapabilities descriptor"
        )
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtins() -> None:
    """Import the built-in engine modules (registration side effect).

    Callers may reach the registry through :mod:`repro.core.kernel`
    without ever importing the :mod:`repro.engine` package itself.
    """
    if "reference" not in _REGISTRY or "banded" not in _REGISTRY:
        from . import batched, reference, variants  # noqa: F401


def engine_names() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def engine_capabilities(name: str) -> EngineCapabilities:
    """The capability descriptor of the engine registered as *name*."""
    _ensure_builtins()
    try:
        return _REGISTRY[name].capabilities
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered: {', '.join(engine_names())}"
        ) from None


def find_engines(
    *,
    exactness: str | None = None,
    gap_model: str | None = None,
    endpoints: str | None = None,
    requires: tuple[str, ...] = (),
) -> tuple[str, ...]:
    """Registered engine names whose capabilities match, sorted.

    ``None`` criteria match anything; *requires* lists bound-parameter
    names the engine must accept (``requires=("band",)`` finds the
    banded family).  This is how the QoS ladder picks backends without
    naming modules.
    """
    _ensure_builtins()
    out = []
    for name in sorted(_REGISTRY):
        caps = _REGISTRY[name].capabilities
        if exactness is not None and caps.exactness != exactness:
            continue
        if gap_model is not None and caps.gap_model != gap_model:
            continue
        if endpoints is not None and caps.endpoints != endpoints:
            continue
        if any(p not in caps.bound_params for p in requires):
            continue
        out.append(name)
    return tuple(out)


def parse_engine_spec(spec: str) -> tuple[str, dict[str, object]]:
    """Split an engine spec string into ``(name, params)``.

    ``"banded:band=16"`` -> ``("banded", {"band": 16})``;
    ``"xdrop:x=50"`` -> ``("xdrop", {"x": 50})``; multiple params
    separate with commas.  Values parse as int, then float, with the
    literal strings ``none``/``auto`` meaning ``None`` (derive per
    job).  A bare name has no params.  Raises ``ValueError`` on a
    malformed spec or a repeated key — the CLI maps that to the
    taxonomy exit code.
    """
    name, sep, tail = spec.partition(":")
    params: dict[str, object] = {}
    if not sep:
        return name, params
    if not tail:
        raise ValueError(f"empty parameter list in engine spec {spec!r}")
    for item in tail.split(","):
        key, eq, raw = item.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(
                f"bad engine spec {spec!r}: expected name:key=value[,key=value...]"
            )
        if key in params:
            raise ValueError(f"bad engine spec {spec!r}: repeated parameter {key!r}")
        raw = raw.strip()
        value: object
        if raw.lower() in ("none", "auto"):
            value = None
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return name, params


def resolve_engine(spec, **params) -> ExecutionEngine:
    """Turn an engine spec into an instance.

    ``None`` means the ``batched`` engine, the fast exact local one; a
    string is looked up in the registry (an optional ``:key=value``
    suffix carries bound parameters, e.g. ``"banded:band=16"``); an
    instance passes through.  Keyword *params* merge over spec-string
    parameters and go to the engine constructor — unknown parameters
    raise ``ValueError`` naming the engine, so CLI plumbing can map
    them to the taxonomy exit code.
    """
    if spec is None:
        spec = "batched"
    if isinstance(spec, ExecutionEngine):
        if params:
            raise ValueError("cannot apply engine params to an instance spec")
        return spec
    if isinstance(spec, str):
        _ensure_builtins()
        name, spec_params = parse_engine_spec(spec)
        spec_params.update(params)
        try:
            cls = _REGISTRY[name]
        except KeyError:
            raise ValueError(
                f"unknown engine {name!r}; registered: {', '.join(engine_names())}"
            ) from None
        try:
            return cls(**spec_params)
        except TypeError as exc:
            raise ValueError(f"bad parameters for engine {name!r}: {exc}") from None
    raise TypeError(f"engine must be None, a name, or an ExecutionEngine, got {type(spec)}")
