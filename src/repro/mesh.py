"""Logical device meshes (Section 2.2 of the paper).

A mesh is an n-dimensional array of devices with *named* axes, e.g.
``Mesh({"B": 4, "M": 2})``.  PartIR collectives reference mesh axes (never
device ids), so the mesh is the single source of truth for axis sizes and for
enumerating device coordinates when the simulated-mesh executor runs a
partitioned program.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Mapping, Optional, Tuple


class Mesh:
    """A named-axis logical view of a set of devices."""

    def __init__(self, axes: Mapping[str, int],
                 device_kind: str = "simulated"):
        if not axes:
            raise ValueError("a mesh needs at least one axis")
        for name, size in axes.items():
            if size < 1:
                raise ValueError(f"mesh axis {name!r} has size {size}")
        self.axes: Dict[str, int] = dict(axes)
        self.device_kind = device_kind

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(self.axes)

    @property
    def num_devices(self) -> int:
        out = 1
        for size in self.axes.values():
            out *= size
        return out

    def size(self, axis: str) -> int:
        try:
            return self.axes[axis]
        except KeyError:
            raise KeyError(
                f"mesh has no axis {axis!r}; axes: {self.axis_names}"
            )

    def device_coords(self) -> Iterable[Dict[str, int]]:
        """Iterate coordinates of every device as {axis: index} dicts."""
        names = self.axis_names
        for combo in itertools.product(*(range(self.axes[a]) for a in names)):
            yield dict(zip(names, combo))

    def group_size(self, axes: Iterable[str]) -> int:
        out = 1
        for a in axes:
            out *= self.size(a)
        return out

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{v}" for k, v in self.axes.items())
        return f"Mesh({{{body}}})"

    def __eq__(self, other) -> bool:
        """Axes compare in order (propagation visits them in mesh order).

        >>> Mesh({"a": 2, "b": 4}) == Mesh({"b": 4, "a": 2})
        False
        """
        return (isinstance(other, Mesh)
                and tuple(self.axes.items()) == tuple(other.axes.items()))

    def __hash__(self) -> int:
        return hash(tuple(self.axes.items()))
