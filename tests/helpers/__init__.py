"""Shared test helpers (importable as ``tests.helpers``).

Requires ``pythonpath = .`` in pytest.ini so the repo root is on
``sys.path`` during collection.
"""

from tests.helpers.hostile import (
    HostileSocket,
    partition,
    socket_pair_on_reactor,
    split_points,
)
from tests.helpers.screens import ScreenReplay
from tests.helpers.sessions import assert_one_session_per_user
from tests.helpers.wire import (
    MALFORMED_CLIENT_MESSAGES,
    MALFORMED_SERVER_MESSAGE,
    MALFORMED_SERVER_MESSAGES,
    OPEN_HANDSHAKE,
    received_encodings,
)

__all__ = ["HostileSocket", "MALFORMED_CLIENT_MESSAGES",
           "MALFORMED_SERVER_MESSAGE", "MALFORMED_SERVER_MESSAGES",
           "OPEN_HANDSHAKE", "ScreenReplay", "assert_one_session_per_user",
           "partition", "received_encodings", "socket_pair_on_reactor",
           "split_points"]
