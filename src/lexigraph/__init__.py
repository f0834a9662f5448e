"""Dictionary-definition analysis: definitional digraphs, case frames,
sense selection networks, non-primitive reduction, and a definition-driven
disambiguator, with a bundled study corpus.

The public names below are imported from their modules on first use
(PEP 562), so ``import lexigraph`` loads no submodule and a command pays
only for the modules it calls."""

import importlib

_EXPORTS = {
    "lexicon": (
        "Lexicon", "LexfError", "ParsedDefinition", "PartOfSpeech", "Phrase",
        "ResolutionRecord", "Sense", "SenseKey", "SenseLabel", "genus_words",
        "merge_lexicons", "parse_definition", "parse_lexf", "senses_of",
    ),
    "lexf_writer": ("serialize_lexf",),
    "defgraph": (
        "Arc", "DefinitionGraph", "External", "build_graph", "condensation",
        "primitive_candidates", "resolve", "strongly_connected_components",
    ),
    "frames": (
        "Descriptor", "Frame", "Slot", "UseDelta", "apply_use", "build_frames",
        "specialize_subsense", "use_deltas",
    ),
    "prep_rules": ("RuleTable",),
    "reduction": ("ReductionReport", "reduce_fixpoint"),
    "ssn": ("SSN", "compile_ssn", "traverse"),
    "parser": (
        "DisambiguationResult", "chunk_sentence", "disambiguate",
        "disambiguate_in_definition", "parse_discourse",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
