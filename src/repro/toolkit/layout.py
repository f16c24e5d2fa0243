"""Container widgets with deterministic box layout."""

from __future__ import annotations

from repro.graphics.region import Rect
from repro.toolkit.theme import Theme
from repro.toolkit.widget import Widget


class _Box(Widget):
    """Shared machinery for Row and Column.

    Children receive their preferred size along the main axis; leftover
    space is divided among children with a positive ``stretch`` weight
    (stored on the child as ``layout_stretch``).  The cross axis fills.
    """

    axis = 0  # 0 = horizontal (Row), 1 = vertical (Column)

    def __init__(self, padding: int | None = None,
                 spacing: int | None = None) -> None:
        super().__init__()
        self.padding = padding
        self.spacing = spacing

    def _metrics(self, theme: Theme) -> tuple[int, int]:
        padding = self.padding if self.padding is not None else theme.padding
        spacing = self.spacing if self.spacing is not None else theme.spacing
        return padding, spacing

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        padding, spacing = self._metrics(theme)
        visible = [c for c in self.children if c.visible]
        main = 0
        cross = 0
        for child in visible:
            pw, ph = child.preferred_size(theme)
            size = (pw, ph)
            main += size[self.axis]
            cross = max(cross, size[1 - self.axis])
        if visible:
            main += spacing * (len(visible) - 1)
        main += 2 * padding
        cross += 2 * padding
        return (main, cross) if self.axis == 0 else (cross, main)

    def perform_layout(self, theme: Theme) -> None:
        padding, spacing = self._metrics(theme)
        visible = [c for c in self.children if c.visible]
        if not visible:
            return
        box = (self.rect.w, self.rect.h)
        main_total = box[self.axis] - 2 * padding
        cross_total = box[1 - self.axis] - 2 * padding
        main_total -= spacing * (len(visible) - 1)
        preferred = [child.preferred_size(theme) for child in visible]
        natural = [size[self.axis] for size in preferred]
        stretches = [max(0, getattr(child, "layout_stretch", 0))
                     for child in visible]
        leftover = main_total - sum(natural)
        total_stretch = sum(stretches)
        extras = [0] * len(visible)
        if leftover > 0 and total_stretch > 0:
            remaining = leftover
            for i, stretch in enumerate(stretches):
                share = leftover * stretch // total_stretch
                extras[i] = share
                remaining -= share
            # distribute rounding remainder to the first stretchy children
            i = 0
            while remaining > 0 and total_stretch > 0:
                if stretches[i % len(visible)] > 0:
                    extras[i % len(visible)] += 1
                    remaining -= 1
                i += 1
        offset = padding
        for child, size, extra in zip(visible, natural, extras):
            main_size = max(0, size + extra)
            if self.axis == 0:
                child.rect = Rect(offset, padding, main_size,
                                  max(0, cross_total))
            else:
                child.rect = Rect(padding, offset, max(0, cross_total),
                                  main_size)
            offset += main_size + spacing
            child.perform_layout(theme)


class Row(_Box):
    """Lays children out left to right."""

    axis = 0


class Column(_Box):
    """Lays children out top to bottom."""

    axis = 1
