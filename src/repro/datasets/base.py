"""Datasets: named collections of problem instances (Table II).

SAGA "includes interfaces for generating, saving, and loading datasets for
benchmarking" (Section IV).  A :class:`Dataset` is an ordered, named list
of :class:`~repro.core.ProblemInstance`; generators for the 16 datasets of
Table II register themselves in a global registry keyed by the paper's
dataset names.
"""

from __future__ import annotations

import gzip
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.exceptions import DatasetError
from repro.core.instance import ProblemInstance

__all__ = [
    "Dataset",
    "register_dataset",
    "get_dataset_generator",
    "list_datasets",
    "generate_dataset",
]


@dataclass
class Dataset:
    """A named, ordered collection of problem instances."""

    name: str
    instances: list[ProblemInstance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instances)

    def __getitem__(self, index: int) -> ProblemInstance:
        return self.instances[index]

    def __iter__(self) -> Iterator[ProblemInstance]:
        return iter(self.instances)

    def add(self, instance: ProblemInstance) -> None:
        self.instances.append(instance)

    def validate(self) -> None:
        """Validate every instance (datasets are trusted after generation)."""
        for instance in self.instances:
            instance.validate()

    # ------------------------------------------------------------------ #
    # Persistence (gzipped JSON; datasets of 1000 instances stay small)
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        """Write the dataset as gzipped JSON."""
        payload = {
            "name": self.name,
            "instances": [inst.to_dict() for inst in self.instances],
        }
        path = Path(path)
        try:
            with gzip.open(path, "wt") as fh:
                json.dump(payload, fh)
        except OSError as exc:  # pragma: no cover - filesystem dependent
            raise DatasetError(f"could not save dataset to {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Read a dataset written by :meth:`save`."""
        path = Path(path)
        try:
            with gzip.open(path, "rt") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DatasetError(f"could not load dataset from {path}: {exc}") from exc
        return cls(
            name=payload["name"],
            instances=[ProblemInstance.from_dict(p) for p in payload["instances"]],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dataset({self.name!r}, {len(self)} instances)"


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
#: A dataset generator: (num_instances, rng, **kwargs) -> Dataset.
DatasetGenerator = Callable[..., Dataset]

_REGISTRY: dict[str, DatasetGenerator] = {}


def register_dataset(name: str) -> Callable[[DatasetGenerator], DatasetGenerator]:
    """Decorator registering a generator under the paper's dataset name."""

    def decorator(func: DatasetGenerator) -> DatasetGenerator:
        if name in _REGISTRY and _REGISTRY[name] is not func:
            raise ValueError(f"dataset name {name!r} already registered")
        _REGISTRY[name] = func
        return func

    return decorator


def get_dataset_generator(name: str) -> DatasetGenerator:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise DatasetError(f"unknown dataset {name!r}; known: {known}") from None


def list_datasets() -> list[str]:
    """Sorted names of all registered dataset generators."""
    return sorted(_REGISTRY)


def generate_dataset(name: str, num_instances: int | None = None, rng=None, **kwargs) -> Dataset:
    """Generate a registered dataset.

    ``num_instances=None`` uses the generator's paper-scale default (1000
    for the random and IoT datasets, 100 for the scientific workflows).
    """
    gen = get_dataset_generator(name)
    if num_instances is None:
        return gen(rng=rng, **kwargs)
    if num_instances < 0:
        raise DatasetError("num_instances must be non-negative")
    return gen(num_instances=num_instances, rng=rng, **kwargs)
