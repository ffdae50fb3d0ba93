"""Queryable registry over the Z-Wave command-class specification.

The registry is the programmatic equivalent of the paper's "automated script
[that] parses these sources and clusters CMDCLs that a controller should
support" (Section III-C1).  It answers the questions ZCover's discovery and
mutation phases ask:

* which classes exist in the public specification (122 of them),
* which classes a controller is expected to implement (the controller
  clusters: application, transport encapsulation, management, network),
* how many commands each class defines (the prioritisation metric of
  Figure 5), and
* the exact command/parameter schema for semantic mutation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import UnknownCommandClassError, UnknownCommandError
from .cmdclass import Cluster, Command, CommandClass, CONTROLLER_CLUSTERS
from .spec_data import (
    PUBLIC_SPEC_CLASS_COUNT,
    build_all_classes,
    build_proprietary_classes,
    build_public_spec,
)


class SpecRegistry:
    """Immutable view over a set of :class:`CommandClass` definitions."""

    def __init__(self, classes: Iterable[CommandClass]):
        self._classes: Dict[int, CommandClass] = {}
        for cls in classes:
            if cls.id in self._classes:
                raise ValueError(f"duplicate command class id {cls.id:#04x}")
            self._classes[cls.id] = cls

    # -- basic lookups ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, cls_id: int) -> bool:
        return cls_id in self._classes

    def __iter__(self):
        return iter(sorted(self._classes.values(), key=lambda c: c.id))

    def get(self, cls_id: int) -> Optional[CommandClass]:
        """Return the class with identifier *cls_id* or ``None``."""
        return self._classes.get(cls_id)

    def require(self, cls_id: int) -> CommandClass:
        """Return the class with identifier *cls_id* or raise."""
        cls = self._classes.get(cls_id)
        if cls is None:
            raise UnknownCommandClassError(f"command class {cls_id:#04x} not in registry")
        return cls

    def command(self, cls_id: int, cmd_id: int) -> Command:
        """Return the command *cmd_id* of class *cls_id* or raise."""
        cls = self.require(cls_id)
        cmd = cls.command(cmd_id)
        if cmd is None:
            raise UnknownCommandError(
                f"command {cmd_id:#04x} not defined for class {cls.name} ({cls_id:#04x})"
            )
        return cmd

    def by_name(self, name: str) -> CommandClass:
        """Return the class named *name* (exact match) or raise."""
        for cls in self._classes.values():
            if cls.name == name:
                return cls
        raise UnknownCommandClassError(f"no command class named {name!r}")

    def class_ids(self) -> Tuple[int, ...]:
        """Return all class identifiers in ascending order."""
        return tuple(sorted(self._classes))

    # -- clustering (Section III-C1) ----------------------------------------

    def cluster(self, cluster: Cluster) -> List[CommandClass]:
        """All classes belonging to *cluster*."""
        return [c for c in self if c.cluster is cluster]

    def controller_relevant_ids(self, include_proprietary: bool = False) -> Tuple[int, ...]:
        """Identifiers of classes a controller should support.

        With ``include_proprietary=False`` this is the paper's spec-derived
        cluster baseline: the classes "related to application functionality,
        transport encapsulation, management, and networking".  Proprietary
        classes can only enter the picture through validation testing, so
        they are excluded from the spec-derived set by default.
        """
        ids = []
        for cls in self:
            if cls.cluster in CONTROLLER_CLUSTERS:
                ids.append(cls.id)
            elif include_proprietary and cls.cluster is Cluster.PROPRIETARY:
                ids.append(cls.id)
        return tuple(sorted(ids))

    # -- prioritisation (Figure 5) ------------------------------------------

    def command_count(self, cls_id: int) -> int:
        """Number of commands defined for class *cls_id*."""
        return self.require(cls_id).command_count

    def command_distribution(
        self, cls_ids: Optional[Sequence[int]] = None
    ) -> List[Tuple[CommandClass, int]]:
        """Return (class, #commands) pairs sorted by descending count.

        This is the data behind Figure 5; ties are broken by ascending
        class identifier so the ordering is deterministic.
        """
        classes = (
            [self.require(i) for i in cls_ids] if cls_ids is not None else list(self)
        )
        ranked = sorted(classes, key=lambda c: (-c.command_count, c.id))
        return [(c, c.command_count) for c in ranked]

    def prioritize(self, cls_ids: Sequence[int]) -> Tuple[int, ...]:
        """Order *cls_ids* for fuzzing: most commands first (Section III-C1).

        "ZCover gives higher priority to discovered unlisted CMDCLs that
        support more CMDs [...] the more functionalities included, the
        higher the likelihood of potential implementation bugs."
        """
        known = [i for i in cls_ids if i in self]
        unknown = sorted(i for i in cls_ids if i not in self)
        ranked = sorted(known, key=lambda i: (-self.command_count(i), i))
        return tuple(ranked + unknown)


# The registries are immutable views over frozen CommandClass definitions,
# so each variant is built once per process and shared: every campaign,
# controller and mutator previously re-parsed the whole spec on startup.
_PUBLIC_REGISTRY: Optional[SpecRegistry] = None
_FULL_REGISTRY: Optional[SpecRegistry] = None


def load_public_registry() -> SpecRegistry:
    """Registry of the 122 public specification classes only.

    This mirrors parsing the Z-Wave Alliance specification release plus the
    ``ZWave_custom_cmd_classes.xml`` definitions file.
    """
    global _PUBLIC_REGISTRY
    if _PUBLIC_REGISTRY is None:
        registry = SpecRegistry(build_public_spec())
        if len(registry) != PUBLIC_SPEC_CLASS_COUNT:
            raise AssertionError(
                f"public spec must define {PUBLIC_SPEC_CLASS_COUNT} classes, got {len(registry)}"
            )
        _PUBLIC_REGISTRY = registry
    return _PUBLIC_REGISTRY


def load_full_registry() -> SpecRegistry:
    """Registry including the proprietary classes (0x01, 0x02).

    This is the *ground truth* the simulator's firmware uses; ZCover itself
    must start from :func:`load_public_registry` and earn knowledge of the
    proprietary classes through validation testing.
    """
    global _FULL_REGISTRY
    if _FULL_REGISTRY is None:
        _FULL_REGISTRY = SpecRegistry(build_all_classes().values())
    return _FULL_REGISTRY


def proprietary_class_ids() -> Tuple[int, ...]:
    """Identifiers of the classes absent from the public specification."""
    return tuple(sorted(c.id for c in build_proprietary_classes()))
