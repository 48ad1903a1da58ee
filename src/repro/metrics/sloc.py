"""Source-lines-of-code counting over composition artifacts.

Table 1 counts "the source lines of code (SLOC) changed or used to
implement the task, including the services' source code, scripts,
configurations, and schema definitions".  An :class:`Artifact` is one such
file (its content is real text generated/maintained in this repo -- proto
definitions, generated stubs, client code, deployment configs, DXG
fragments); SLOC is non-blank, non-comment lines with language-appropriate
comment syntax.
"""

from dataclasses import dataclass

_COMMENT_PREFIXES = {
    "python": ("#",),
    "proto": ("//",),
    "yaml": ("#",),
    "dxg": ("#",),
    "shell": ("#",),
    "text": (),
}


@dataclass(frozen=True)
class Artifact:
    """One file touched by a composition task."""

    path: str
    content: str
    language: str = "python"
    changed: bool = True  # False = read/used but not modified

    @property
    def sloc(self):
        return count_sloc(self.content, self.language)


def count_sloc(text, language="python"):
    """Non-blank, non-comment source lines.

    Python docstrings are counted as code (they are part of the shipped
    artifact), matching how ``cloc``-style tools treat this repo's style
    when configured for logical lines; pure comment lines are not.
    """
    prefixes = _COMMENT_PREFIXES.get(language, ("#",))
    count = 0
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if any(line.startswith(p) for p in prefixes):
            continue
        count += 1
    return count


def total_sloc(artifacts, changed_only=True):
    """Sum SLOC over artifacts (changed ones by default)."""
    return sum(a.sloc for a in artifacts if a.changed or not changed_only)


def file_count(artifacts):
    """Count the changed artifacts."""
    return sum(1 for a in artifacts if a.changed)
