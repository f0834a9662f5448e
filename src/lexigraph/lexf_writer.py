"""Writing a Lexicon back out as LEXF.  No command reads this module, so
none compiles it."""
from __future__ import annotations

from .lexicon import Lexicon, SenseKey


def serialize_lexf(lexicon: Lexicon) -> str:
    """Write a Lexicon back out as LEXF; parse(serialize(lx)) == lx."""
    lines: list[str] = []
    current: tuple | None = None
    emitted_seeds: set[SenseKey] = set()
    for s in lexicon.entries:
        header = (s.headword, s.pos, s.homograph)
        if header != current:
            if current is not None:
                lines.append("")
            lines.append(f"E|{s.headword}|{s.pos.value}|{s.homograph}")
            current = header
        if s.is_synonym_line:
            row = f"Y|{s.label}|{s.synonym_refs[0]}"
            if s.usage_note:
                row += f"|{s.usage_note}"
            lines.append(row)
        else:
            note = s.usage_note or ""
            status = ",".join(sorted(s.status))
            lines.append(f"S|{s.label}|{status}|{s.raw_definition}|{note}")
        if s.key not in emitted_seeds:
            for payload in lexicon.seed_frames.get(s.key, ()):
                lines.append(f"F|{s.label}|{payload}")
            emitted_seeds.add(s.key)
    if lexicon.resolutions:
        lines.append("")
        for r in lexicon.resolutions:
            lines.append(f"R|{r.from_key.render()}|{r.genus_word}|{r.target.render()}")
    return "\n".join(lines) + "\n"
