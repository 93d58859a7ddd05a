"""Schema-version plumbing shared by every serializable stage artifact.

Every stage boundary of the CAD flow (mapped design, packed design,
placement, routing, timing snapshot, bitstream) serializes through a
versioned ``to_dict`` / ``from_dict`` pair.  The conventions, enforced by
the helpers in this module:

* ``to_dict`` output is JSON-safe (only dict/list/str/int/float/bool/None)
  and carries a ``"schema"`` integer naming the payload layout;
* ``from_dict`` validates the version before touching the payload —
  unknown versions raise :class:`UnknownSchemaError` instead of guessing;
* malformed payloads (missing keys, wrong types, dangling references)
  raise :class:`CorruptArtifactError` instead of mis-deserializing.

This module is a deliberate leaf: it imports nothing from ``repro`` so the
``cad``/``core``/``netlist`` layers can use it without import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping


class ArtifactError(ValueError):
    """Base class for every stage-artifact (de)serialization failure."""


class UnknownSchemaError(ArtifactError):
    """The payload declares a schema version this build cannot read."""


class CorruptArtifactError(ArtifactError):
    """The payload is structurally broken (keys, types, or references)."""


def require_version(data: object, kind: str, supported: int) -> int:
    """Validate ``data["schema"]`` against the *supported* version.

    Returns the version found.  Raises :class:`UnknownSchemaError` for
    versions this build cannot read and :class:`CorruptArtifactError` for
    payloads that are not even a mapping or carry no version.
    """
    if not isinstance(data, Mapping):
        raise CorruptArtifactError(f"{kind}: payload is {type(data).__name__}, not a mapping")
    version = data.get("schema")
    if version is None:
        raise CorruptArtifactError(f"{kind}: payload has no schema version")
    if isinstance(version, bool) or not isinstance(version, int):
        raise CorruptArtifactError(f"{kind}: schema version {version!r} is not an integer")
    if version != supported:
        raise UnknownSchemaError(
            f"{kind}: schema version {version} unsupported (this build reads {supported})"
        )
    return version


@contextmanager
def decoding(kind: str) -> Iterator[None]:
    """Translate low-level decode failures into :class:`CorruptArtifactError`.

    ``from_dict`` bodies run inside this context so a missing key or a
    wrong-typed field surfaces as a typed artifact error (with the stage
    kind in the message) rather than a bare ``KeyError`` deep in a cache
    read path.  Typed artifact errors pass through unchanged.
    """
    try:
        yield
    except ArtifactError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptArtifactError(f"{kind}: corrupt payload ({exc!r})") from exc
