"""What a UIP client received, seen from the test side."""

from collections import Counter


def received_encodings(client) -> Counter:
    """Count the rect encodings of every update ``client`` applies from now
    on; the returned counter fills in as updates arrive."""
    seen: Counter = Counter()
    apply = client._apply_update

    def counting(update):
        seen.update(rect.encoding for rect in update.rects)
        return apply(update)

    client._apply_update = counting
    return seen
