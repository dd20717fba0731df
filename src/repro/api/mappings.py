"""The one resolver that builds mappings.

Every mapping family in the library is a
:class:`~repro.mapping.LocalityMapping`: a ``name``, a
``cache_identity()``, and ``order_domain(domain)`` over the full
``Domain`` union.  Consumers — the :class:`~repro.api.SpectralIndex`
facade, the figure harnesses, user code — never need to know which
family they hold.  Mappings carry no ordering service: the index alone
sends a cacheable spectral mapping's config to one.

:func:`make_mapping` is the single construction point.  It accepts:

* a registry name (``"hilbert"``, ``"spectral"``, ``"spectral-rb"``,
  ...);
* a :class:`~repro.core.spectral.SpectralConfig` (implies the spectral
  family);
* a ready :class:`~repro.mapping.LocalityMapping` (returned unchanged).

The ``config=`` keyword carries spectral configuration *alongside* a
name: the spectral families consume it, pure curve names ignore it.
That asymmetry is deliberate — it is what lets a harness loop over
``("sweep", ..., "spectral")`` with one call per name instead of
special-casing the spectral member (the exact boilerplate this module
replaces).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.core.spectral import SpectralConfig
from repro.errors import InvalidParameterError
from repro.mapping.interface import (
    CurveMapping,
    LocalityMapping,
    SpectralBisectionMapping,
    SpectralMapping,
)

#: What callers may pass where a mapping is expected.
MappingSpec = Union[str, SpectralConfig, LocalityMapping]


def _spectral_kwargs(config: Optional[SpectralConfig], kwargs: dict) -> dict:
    """Merge a config (as defaults) under explicit keyword overrides."""
    merged = dict(dataclasses.asdict(config)) if config is not None else {}
    merged.update(kwargs)
    return merged


def make_mapping(spec: MappingSpec, *,
                 config: Optional[SpectralConfig] = None,
                 **kwargs) -> LocalityMapping:
    """Build (or pass through) a mapping from a :data:`MappingSpec`.

    Parameters
    ----------
    spec:
        A registry name from :data:`~repro.mapping.MAPPING_NAMES`, a
        :class:`~repro.core.spectral.SpectralConfig` (implies
        ``"spectral"``), or a ready mapping instance (returned as-is;
        ``config``/``kwargs`` are then rejected rather than silently
        dropped).
    config:
        Spectral configuration applied when ``spec`` names the spectral
        family; ``"spectral-rb"`` adopts its shared fields
        (``backend``, ``connectivity``).  A multilevel order is
        ``config=SpectralConfig(backend="multilevel")``.  Ignored by
        curve names, which is what keeps a mixed-name loop one call per
        name.
    kwargs:
        Per-family keyword overrides (they win over ``config``).  Curve
        names accept none.
    """
    if isinstance(spec, LocalityMapping):
        if config is not None or kwargs:
            raise InvalidParameterError(
                "a ready mapping instance accepts no config or keyword "
                "overrides; construct a new one instead"
            )
        return spec
    if isinstance(spec, SpectralConfig):
        if config is not None:
            raise InvalidParameterError(
                "pass either a SpectralConfig spec or config=, not both"
            )
        config = spec
        spec = "spectral"
    if not isinstance(spec, str):
        raise InvalidParameterError(
            "mapping spec must be a name, a SpectralConfig, or a mapping "
            f"instance, got {type(spec).__name__}"
        )
    lowered = spec.lower()
    if lowered == "spectral":
        return SpectralMapping(**_spectral_kwargs(config, kwargs))
    if lowered == "spectral-rb":
        base = ({"backend": config.backend,
                 "connectivity": config.connectivity}
                if config is not None else {})
        base.update(kwargs)
        return SpectralBisectionMapping(**base)
    if kwargs:
        raise InvalidParameterError(
            f"curve mapping {spec!r} accepts no keyword arguments"
        )
    return CurveMapping(lowered)
