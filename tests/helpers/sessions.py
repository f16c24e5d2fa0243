"""What a home's server holds, checked from the test side."""


def assert_one_session_per_user(home) -> None:
    """``home``'s server holds exactly one live session per user: the
    user's ``server_session``, on that user's surface."""
    users = home.users.values()
    assert (sorted(map(id, home.uniint_server.sessions))
            == sorted(id(user.server_session) for user in users))
    for user in users:
        assert user.server_session.ready, user.user_id
        assert user.server_session in user.surface.sessions, user.user_id
