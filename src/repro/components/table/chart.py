"""Charts on table data: the paper's observer example (section 2).

"In the chart example, the underlying data object is a table of values
... the chart view would be viewing not a table data object but an
auxiliary chart data object.  The chart data object would retain
information such as axes labelling.  In addition, the chart data object
would be an observer of the table data object.  As information in the
table changed, the chart data object would be notified and it, in turn,
would notify the chart view."

:class:`ChartData` is that auxiliary data object.  It persists the
view-adjacent state a chart needs (title, labels, which column is the
series) — state that belongs in *no* view because views are transient —
and observes a :class:`TableData`, recomputing its series and notifying
its own observers when the table changes.  The table announces one
``"cell"`` record per assignment, listing every cell whose value
changed in its ``extent``; the chart recomputes once if any of those
cells lies in its series and not at all otherwise, so an edit costs one
series read however many charted values its recalc moved.
:class:`PieChartView` and :class:`BarChartView` are two view types on
the chart data, giving the paper's "table of numbers and a pie chart
representing the table" in one window.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ...class_system.observable import ChangeRecord, Observer
from ...core.dataobject import DataObject
from ...core.datastream import BodyLine, EndObject
from ...core.view import View
from ...graphics.geometry import Rect
from ...graphics.graphic import Graphic
from .tabledata import TableData

__all__ = ["ChartData", "PieChartView", "BarChartView"]


class ChartData(DataObject, Observer):
    """Auxiliary data object: chart configuration + derived series.

    Persistable state: ``title``, ``series_axis`` (``"col"``/``"row"``),
    ``series_index``, ``labels``.  The observed table itself is *not*
    written to the chart's body — in a document, chart and table are
    siblings and the embedding component re-links them (the table is the
    authority on the numbers; the chart only caches them).
    """

    atk_name = "chart"

    def __init__(self, table: Optional[TableData] = None,
                 series_axis: str = "col", series_index: int = 0,
                 title: str = "") -> None:
        super().__init__()
        if series_axis not in ("col", "row"):
            raise ValueError(f"series_axis must be 'col' or 'row', not {series_axis!r}")
        self.title = title
        self.series_axis = series_axis
        self.series_index = series_index
        self.labels: List[str] = []
        self._table: Optional[TableData] = None
        self._series: List[float] = []
        self.recompute_count = 0
        if table is not None:
            self.attach_table(table)

    # -- table observation ------------------------------------------------

    def attach_table(self, table: Optional[TableData]) -> None:
        """Observe ``table``; detaches from any previous one."""
        if self._table is not None:
            self._table.remove_observer(self)
        self._table = table
        if table is not None:
            table.add_observer(self)
        self._recompute()

    @property
    def table(self) -> Optional[TableData]:
        return self._table

    def observed_changed(self, change: ChangeRecord) -> None:
        """The table changed: refresh the series, then tell *our*
        observers (the chart views) — the paper's two-hop update.

        A cell record's ``extent`` lists every cell whose value changed,
        so an edit whose values all lie outside the charted series is
        ignored entirely, and one that crosses it costs one recompute.
        """
        if change.what == "cell":
            axis = 1 if self.series_axis == "col" else 0
            index = self.series_index
            if not any(key[axis] == index for key in change.extent):
                return
        self._recompute()

    def observed_destroyed(self, source) -> None:
        if source is self._table:
            self._table = None
            self._recompute()

    def _recompute(self) -> None:
        self.recompute_count += 1
        if self._table is None:
            self._series = []
        elif self.series_axis == "col":
            self._series = self._table.column_values(self.series_index)
        else:
            self._series = self._table.row_values(self.series_index)
        self.changed("series", extent=len(self._series))

    # -- configuration (persisted; the stable state of §2) -------------------

    def series(self) -> List[float]:
        return list(self._series)

    def set_title(self, title: str) -> None:
        self.title = title
        self.changed("config")

    def set_series(self, axis: str, index: int) -> None:
        if axis not in ("col", "row"):
            raise ValueError(f"axis must be 'col' or 'row', not {axis!r}")
        self.series_axis = axis
        self.series_index = index
        self._recompute()

    def set_labels(self, labels: List[str]) -> None:
        self.labels = list(labels)
        self.changed("config")

    # -- external representation ----------------------------------------------

    def write_body(self, writer) -> None:
        writer.write_body_line(f"@title {self.title}")
        writer.write_body_line(
            f"@series {self.series_axis} {self.series_index}"
        )
        for label in self.labels:
            writer.write_body_line(f"@label {label}")

    def read_body(self, reader) -> None:
        self.labels = []
        for event in reader.body_events():
            if isinstance(event, BodyLine):
                text = event.text
                if text.startswith("@title "):
                    self.title = text[len("@title "):]
                elif text.startswith("@title"):
                    self.title = ""
                elif text.startswith("@series "):
                    parts = text.split()
                    self.series_axis, self.series_index = parts[1], int(parts[2])
                elif text.startswith("@label "):
                    self.labels.append(text[len("@label "):])
            elif isinstance(event, EndObject):
                break


class _ChartViewBase(View):
    """Shared machinery for the chart view types."""

    atk_register = False

    def __init__(self, dataobject: Optional[ChartData] = None) -> None:
        super().__init__(dataobject)

    @property
    def chart(self) -> Optional[ChartData]:
        return self.dataobject

    def _series(self) -> List[float]:
        return self.chart.series() if self.chart is not None else []

    def _label(self, index: int) -> str:
        if self.chart is not None and index < len(self.chart.labels):
            return self.chart.labels[index]
        return f"#{index + 1}"


class PieChartView(_ChartViewBase):
    """A pie over the series: ellipse plus sector radii, slice legend.

    On a cell device the 'pie' is small but real — radii drawn with the
    line primitives — and the legend carries the percentages, keeping
    snapshots meaningful on both window systems.
    """

    atk_name = "piechartview"

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        values = [v for v in self._series() if v > 0]
        return (min(width, 40), min(height, max(7, len(values) + 3)))

    def draw(self, graphic: Graphic) -> None:
        values = [v for v in self._series() if v > 0]
        total = sum(values)
        title = self.chart.title if self.chart is not None else ""
        if title:
            graphic.draw_string(0, 0, title)
        if total <= 0:
            graphic.draw_string(0, 1, "(no data)")
            return
        # The pie occupies the left half; legend on the right.
        size = max(4, min(self.height - 2, self.width // 2 - 1))
        pie = Rect(0, 1, size * 2, size)
        graphic.draw_ellipse(pie)
        center = pie.center
        angle = -math.pi / 2  # twelve o'clock
        for value in values:
            dx = round(math.cos(angle) * pie.width / 2)
            dy = round(math.sin(angle) * pie.height / 2)
            graphic.draw_line(center.x, center.y, center.x + dx, center.y + dy)
            angle += 2 * math.pi * (value / total)
        legend_x = pie.right + 2
        for index, value in enumerate(values):
            if 1 + index >= self.height:
                break
            share = 100.0 * value / total
            graphic.draw_string(
                legend_x, 1 + index,
                f"{self._label(index)} {share:.0f}%",
            )


class BarChartView(_ChartViewBase):
    """Horizontal bars over the series — the second chart view type."""

    atk_name = "barchartview"

    def desired_size(self, width: int, height: int) -> Tuple[int, int]:
        return (min(width, 40), min(height, len(self._series()) + 2))

    def draw(self, graphic: Graphic) -> None:
        values = self._series()
        title = self.chart.title if self.chart is not None else ""
        if title:
            graphic.draw_string(0, 0, title)
        top = 1 if title else 0
        peak = max((abs(v) for v in values), default=0.0)
        if peak <= 0:
            graphic.draw_string(0, top, "(no data)")
            return
        label_width = 8
        avail = max(1, self.width - label_width - 8)
        for index, value in enumerate(values):
            y = top + index
            if y >= self.height:
                break
            length = max(1, round(abs(value) / peak * avail))
            graphic.draw_string(0, y, self._label(index)[:label_width - 1])
            graphic.fill_rect(Rect(label_width, y, length, 1), 1)
            graphic.draw_string(label_width + length + 1, y, f"{value:g}")
