"""Spec files: what the machine and workload spec layers share.

Both halves of the paper's method — the machine and the workload — are
declarative spec files (``machines/*.json|toml``,
``workloads/*.json|toml``).  This stdlib-only leaf module owns every
piece of plumbing the two kinds have in common, so
:mod:`repro.machine` and :mod:`repro.workload` keep only the schema of
their tree and their built-ins:

* :func:`read_spec_file` — the one reader: opens a file, dispatches on
  ``.json``/``.toml``, and turns every read or decode failure into the
  caller's :class:`SpecError` subclass with the path in the message
  (:func:`in_file` does the same for validation errors);
* :class:`SpecError`, :func:`check_leaf` and :func:`check_table` — the
  error base (with a dotted field path) and the leaf and table checkers
  of both schemas;
* :class:`CanonicalTree` — ``fingerprint``/``short_fingerprint``/
  ``save`` over a spec's canonical ``to_dict()`` tree;
* :class:`SpecRegistry` and :class:`UnknownSpecError` — the directory
  lookup, the one-generation scandir-signature cache, and the token
  lookup rule (``docs/MACHINES.md`` "Resolving a token").

``.toml`` needs :mod:`tomllib` (Python 3.11+).  Without it a registry
scans only ``.json`` files; an explicit ``.toml`` path is refused.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import json
import os
import re
from pathlib import Path
from typing import (
    Any, Callable, Collection, Dict, Hashable, Iterator, Mapping, Optional,
    Sequence, Tuple, Type, TypeVar, Union,
)

__all__ = [
    "SPEC_SUFFIXES",
    "CanonicalTree",
    "RawSpecs",
    "SpecError",
    "SpecRegistry",
    "UnknownSpecError",
    "check_leaf",
    "check_table",
    "in_file",
    "read_spec_file",
    "spec_path",
]

#: Spec file suffixes, in listing order.
SPEC_SUFFIXES = (".json", ".toml")

#: The repository root (``machines/`` and ``workloads/`` live here);
#: computed once, because resolving ``__file__`` walks the whole path
#: through realpath.
_REPO_ROOT = Path(__file__).resolve().parents[2]

#: A full (64) or short (12) hex fingerprint.
_FINGERPRINT = re.compile(r"[0-9a-f]{12}(?:[0-9a-f]{52})?")


class SpecError(ValueError):
    """A spec failed to load or validate.

    Carries the dotted path of the offending field so CLI error lines
    point at the exact key (``machine.l2.associativity: ...``).
    """

    def __init__(self, message: str, path: Sequence[str] = ()):
        self.path = tuple(path)
        prefix = ".".join(self.path)
        super().__init__(f"{prefix}: {message}" if prefix else message)


#: Leaf annotations by name (the schema dataclasses use ``from
#: __future__ import annotations``, so their field types are strings).
_LEAF_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def check_leaf(
    value: Any,
    annotation: Union[type, str],
    path: Sequence[str],
    error: Type[SpecError] = SpecError,
) -> Any:
    """Validate a leaf value against its field type (a type or its name).

    Integers are accepted where a float is expected and coerced with
    ``float()`` (JSON and TOML both allow ``8`` for ``8.0``); the
    conversion is exact for every value a schema holds, so the
    canonical form — and the fingerprint — does not depend on spelling.
    """
    annotation = _LEAF_TYPES.get(annotation, annotation)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error(f"expected a number, got {value!r}", path)
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"expected an integer, got {value!r}", path)
        return value
    if annotation is bool:
        if not isinstance(value, bool):
            raise error(f"expected a boolean, got {value!r}", path)
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise error(f"expected a string, got {value!r}", path)
        return value
    raise error(f"unsupported field type {annotation!r}", path)


def check_table(
    value: Any,
    path: Sequence[str],
    valid: Optional[Collection[str]] = None,
    error: Type[SpecError] = SpecError,
    what: str = "field(s)",
) -> Mapping[str, Any]:
    """``value`` as a table; with ``valid``, one holding no other keys."""
    if not isinstance(value, Mapping):
        raise error(f"expected a table, got {value!r}", path)
    unknown = sorted(set(value) - set(valid)) if valid is not None else ()
    if unknown:
        raise error(f"unknown {what} {unknown} (valid: {sorted(valid)})", path)
    return value


def _tomllib() -> Any:
    """The :mod:`tomllib` module, or ``None`` before Python 3.11."""
    try:
        import tomllib
    except ImportError:
        return None
    return tomllib


@contextlib.contextmanager
def in_file(path: Path, error: Type[SpecError] = SpecError) -> Iterator[None]:
    """Prefix an ``error`` raised inside the block with ``path``."""
    try:
        yield
    except error as exc:
        raise error(f"{path}: {exc}") from None


def read_spec_file(
    path: Union[str, Path], error: Type[SpecError] = SpecError
) -> Dict[str, Any]:
    """Parse a ``.json``/``.toml`` spec file to its raw, unvalidated tree."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        parse = json.loads
    elif suffix == ".toml":
        tomllib = _tomllib()
        if tomllib is None:
            raise error(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                "use JSON instead"
            )
        parse = tomllib.loads
    else:
        raise error(
            f"{path}: unsupported spec format {suffix!r} "
            "(expected .json or .toml)"
        )
    try:
        data = parse(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None
    except (OSError, ValueError) as exc:
        raise error(f"cannot read spec {path}: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path}: expected a table, got {data!r}")
    return data


def spec_path(token: Union[str, Path]) -> Optional[Path]:
    """``token`` as a spec-file path, or ``None`` when it is a name.

    A :class:`~pathlib.Path`, or a string with a path separator or a
    ``.json``/``.toml`` suffix, is a path.
    """
    if isinstance(token, Path):
        return token
    if os.sep in token or "/" in token or token.lower().endswith(SPEC_SUFFIXES):
        return Path(token)
    return None


class CanonicalTree:
    """Identity and persistence over a spec's canonical ``to_dict()``."""

    def to_dict(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form: identical contents —
        however loaded, spelled or derived — hash identically."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def short_fingerprint(self) -> str:
        return self.fingerprint[:12]

    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical form as pretty-printed, key-sorted JSON."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


class UnknownSpecError(KeyError):
    """An unregistered name (the CLI maps this to exit 2); subclasses
    set :attr:`kind`, the noun of the message."""

    kind = "spec"

    def __init__(self, name: str, valid: Sequence[str]):
        self.valid = list(valid)
        self.suggestion: Optional[str] = next(
            iter(difflib.get_close_matches(name, self.valid, n=1)), None
        )
        message = f"unknown {self.kind} {name!r}; valid choices: {', '.join(valid)}"
        if self.suggestion is not None:
            message += f" (did you mean {self.suggestion!r}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its payload by default
        return self.args[0]


S = TypeVar("S", bound=CanonicalTree)

#: A registry directory's raw pass: spec name -> (file, raw tree).
RawSpecs = Dict[str, Tuple[Path, Dict[str, Any]]]


class SpecRegistry:
    """One spec kind's registry core: directory, cache and lookup.

    ``env_var`` overrides the directory (default: ``default_dir`` at the
    repository root); ``error`` and ``unknown`` are the kind's error
    classes; ``fold_case`` lets ``cg`` find a registered ``CG``.
    """

    def __init__(
        self,
        env_var: str,
        default_dir: str,
        error: Type[SpecError],
        unknown: Type[UnknownSpecError],
        fold_case: bool = False,
    ):
        self.env_var = env_var
        self.default_dir = _REPO_ROOT / default_dir
        self.error = error
        self.unknown = unknown
        self.fold_case = fold_case
        #: One-generation cache per listing key, reused while the
        #: directory's signature — one scandir pass of (name, mtime_ns,
        #: size) — is unchanged, so edits are picked up without a
        #: restart.  Specs are frozen, so sharing them is safe.
        self._cache: Dict[Hashable, Tuple[Any, ...]] = {}

    def directory(self) -> Optional[Path]:
        """The spec-file directory, or ``None`` when absent."""
        env = os.environ.get(self.env_var, "").strip()
        path = Path(env) if env else self.default_dir
        return path if path.is_dir() else None

    def listing(
        self, key: Hashable, build: Callable[[RawSpecs], Dict[str, S]]
    ) -> Dict[str, S]:
        """``build(raws)`` over the directory's spec files, cached.

        ``raws`` maps each file's ``name`` to its (path, raw tree), in
        suffix-then-file-name order; two files claiming one name are
        refused.  ``.toml`` files are skipped without :mod:`tomllib`.
        """
        directory = self.directory()
        suffixes = SPEC_SUFFIXES if _tomllib() else (".json",)
        signature: tuple = ()
        if directory is not None:
            with os.scandir(directory) as it:  # DirEntry caches stat()
                signature = tuple(sorted(
                    (e.name, e.stat().st_mtime_ns, e.stat().st_size)
                    for e in it if e.name.lower().endswith(suffixes)
                ))
        cached = self._cache.get(key)
        if cached is not None and cached[:2] == (directory, signature):
            return dict(cached[2])
        files = [
            directory / name for suffix in suffixes
            for name, _, _ in signature if name.lower().endswith(suffix)
        ]
        raws: RawSpecs = {}
        for path in files:
            data = read_spec_file(path, self.error)
            name = data.get("name")
            if not isinstance(name, str) or not name:
                raise self.error(
                    f"{path}: name: expected a non-empty string, got {name!r}"
                )
            if name in raws:
                raise self.error(
                    f"duplicate {self.unknown.kind} name {name!r}: "
                    f"{raws[name][0]} and {path}"
                )
            raws[name] = (path, data)
        out = build(raws)
        self._cache[key] = (directory, signature, out)
        return dict(out)

    def lookup(self, token: str, specs: Mapping[str, S]) -> S:
        """A registered name, else a full or short fingerprint.

        Fingerprints are hashed only after the name missed, so a name
        hit costs a dict probe.
        """
        names = (token, token.upper(), token.lower()) if self.fold_case else (token,)
        for name in names:
            if name in specs:
                return specs[name]
        if _FINGERPRINT.fullmatch(token):
            for spec in specs.values():
                if spec.fingerprint.startswith(token):
                    return spec
        raise self.unknown(token, sorted(specs))
