"""Dictionary-definition analysis: definitional digraphs, case frames,
sense selection networks, non-primitive reduction, and a definition-driven
disambiguator, with a bundled study corpus."""

from .lexicon import (
    Lexicon,
    LexfError,
    ParsedDefinition,
    PartOfSpeech,
    Phrase,
    ResolutionRecord,
    Sense,
    SenseKey,
    SenseLabel,
    genus_words,
    merge_lexicons,
    parse_definition,
    parse_lexf,
    senses_of,
    serialize_lexf,
)
from .defgraph import (
    Arc,
    DefinitionGraph,
    NodeId,
    build_graph,
    condensation,
    primitive_candidates,
    resolve,
    strongly_connected_components,
)
from .frames import (
    Descriptor,
    Frame,
    RuleTable,
    Slot,
    UseDelta,
    apply_use,
    build_frames,
    frame_canonicalize,
    frame_diff,
    load_seed_frames,
    specialize_subsense,
    use_deltas,
)
from .prep_rules import (
    CueTable,
    PrepSense,
    PrepSpecKind,
    classify_prep_sense,
    slot_action_for,
)
from .reduction import ReductionReport, reduce_fixpoint
from .ssn import SSN, compile_ssn, traverse
from .parser import (
    DisambiguationResult,
    chunk_sentence,
    disambiguate,
    disambiguate_in_definition,
    parse_discourse,
)

__version__ = "0.1.0"
