"""Plain-text table rendering for the benchmark reports."""


def format_seconds(seconds):
    """Render seconds as milliseconds, the paper's unit."""
    if seconds is None:
        return "-"
    return f"{seconds * 1000.0:.1f}"


class Table:
    """A fixed-column text table (benchmark report output)."""

    def __init__(self, headers, title=""):
        self.title = title
        self.headers = list(headers)
        self.rows = []

    def add_row(self, *cells):
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_render(c) for c in cells])

    def render(self):
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

        out = []
        if self.title:
            out.append(self.title)
        out.append(line(self.headers))
        out.append(line(["-" * w for w in widths]))
        for row in self.rows:
            out.append(line(row))
        return "\n".join(out)

    def __str__(self):
        return self.render()


def _render(cell):
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)

