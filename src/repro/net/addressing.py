"""Node and link identifiers.

Hosts and servers live in separate namespaces, matching the paper's
model: hosts are the computers that run the broadcast application;
servers are the (nonprogrammable) communication processors they attach
to.  Identifiers are strings or lightweight wrappers around them, so
traces stay readable while the type checker keeps the namespaces apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: name -> the one HostId with that name (see HostId.__new__)
_HOST_IDS: Dict[str, "HostId"] = {}


class HostId(str):
    """Identifier of a broadcast-application host.

    A ``str`` subclass with exactly one instance per name: hashing,
    equality and ordering run in C on every dict, set and sort of the
    data path, and an id pickled into a frame unpickles to the same
    object (``__reduce__`` re-interns).  ``HostId("x") == "x"`` is True
    on purpose — a host id *is* its name, so a plain name can look an id
    up in a host-keyed map (the UDP receive path resolves a frame's
    sender that way).  It still never equals a :class:`ServerId`.
    """

    name: str

    def __new__(cls, name: str) -> "HostId":
        host = _HOST_IDS.get(name)
        if host is None:
            plain = str.__str__(name)  # TypeError unless a str
            host = str.__new__(cls, plain)
            # One cached plain str, so str(h) allocates nothing (trace
            # records keep these strings).
            host.__dict__["name"] = plain
            _HOST_IDS[plain] = host
        return host

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"HostId(name={self.name!r})"

    def __reduce__(self) -> tuple:
        return (HostId, (self.name,))

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"HostId is immutable (cannot set {attr!r})")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"HostId is immutable (cannot delete {attr!r})")


@dataclass(frozen=True, order=True)
class ServerId:
    """Identifier of a communication server (switch)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class LinkId:
    """Identifier of a bidirectional link, normalized to sorted endpoints."""

    a: str
    b: str

    @staticmethod
    def of(x: str, y: str) -> "LinkId":
        """Create a LinkId regardless of endpoint order."""
        return LinkId(*sorted((x, y)))

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}"


def host_id(name: str) -> HostId:
    """Shorthand constructor used throughout tests and examples."""
    return HostId(name)


def server_id(name: str) -> ServerId:
    """Shorthand constructor used throughout tests and examples."""
    return ServerId(name)
