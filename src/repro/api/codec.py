"""JSON codec for the frozen configuration trees.

:class:`~repro.pipeline.config.MechanismConfig` and friends are trees of
frozen dataclasses, enums, tuples and scalars.  Serialising them with a
hand-written schema would rot the first time a config grows a field, so
the codec is generic: dataclasses encode as ``{"$dc": "module:Class",
**init_fields}``, enums as ``{"$enum": "module:Class", "name": ...}``,
tuples as ``{"$tuple": [...]}``; everything else must already be JSON.

Decoding imports classes by dotted path but only from inside the
``repro`` package — an artifact can never instruct the loader to import
arbitrary code.  ``init=False`` dataclass fields (derived values such as
:class:`~repro.predictors.confidence.ConfidenceScale` probability
tables) are skipped on encode and recomputed by ``__post_init__`` on
decode, so round-tripped objects compare equal to the originals.

A field removed from a class is listed in :data:`_RETIRED_FIELDS`, so
artifacts written while it existed still decode; any other unknown
field stays an error.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib

_DC_KEY = "$dc"
_ENUM_KEY = "$enum"
_TUPLE_KEY = "$tuple"

#: (class reference, field) pairs the class no longer has, dropped on
#: decode.  ``StoreSpec.columnar`` selected a trace plane that is gone;
#: ``ExperimentSpec.workers`` sized a process pool that is gone
#: (``shards`` is the one fan-out knob).
_RETIRED_FIELDS = frozenset({
    ("repro.api.spec:StoreSpec", "columnar"),
    ("repro.api.spec:ExperimentSpec", "workers"),
})


def _class_ref(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve(ref: str) -> type:
    module_name, _, qualname = ref.partition(":")
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise ValueError(
            f"refusing to import {ref!r}: artifacts may only reference "
            "classes inside the repro package"
        )
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def encode(value):
    """Recursively convert *value* to JSON-dumpable primitives."""
    if isinstance(value, enum.Enum):
        return {_ENUM_KEY: _class_ref(type(value)), "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.init
        }
        return {_DC_KEY: _class_ref(type(value)), **fields}
    if isinstance(value, tuple):
        return {_TUPLE_KEY: [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__}: {value!r}")


def decode(value):
    """Inverse of :func:`encode`."""
    if isinstance(value, dict):
        if _ENUM_KEY in value:
            return _resolve(value[_ENUM_KEY])[value["name"]]
        if _DC_KEY in value:
            ref = value[_DC_KEY]
            fields = {
                key: decode(item)
                for key, item in value.items()
                if key != _DC_KEY and (ref, key) not in _RETIRED_FIELDS
            }
            return _resolve(ref)(**fields)
        if _TUPLE_KEY in value:
            return tuple(decode(item) for item in value[_TUPLE_KEY])
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode(item) for item in value]
    return value
