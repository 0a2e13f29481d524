"""Exact-arithmetic workbench for analog recurrent neural networks.

Language <-> real-number codecs, automaton-to-network compilers, a
synchronous exact simulator, spike-timing codes, and classification of
networks by the Turing degrees declared on their weights.
"""

from .compilers import (
    Dfa,
    OracleNetSpec,
    Rule,
    TwoStackMachine,
    compose_nets,
    composed_oracle_budget,
    dfa_budget,
    dfa_to_net,
    oracle_budget,
    oracle_consult,
    oracle_net,
    oracle_net_parts,
    pop_gadget,
    push_gadget,
    two_stack_budget,
    two_stack_to_net,
)
from .degrees import DegreeOrder, PowerClass, classify_network, maximals, scalar_degree
from .errors import (
    AlphabetError,
    ArnnError,
    ConfigError,
    ConstructionError,
    EncodingError,
    FormatError,
    HorizonExceeded,
    LabelMissing,
    LatticeError,
    MembershipUndecided,
    RunTimeout,
    ShapeError,
    UnknownSign,
)
from .exact import (
    BINARY,
    CANTOR4,
    ExactScalar,
    Interval,
    PrecisionBudget,
    UnitReal,
    affine_combine,
    saturated_sigma,
    signal,
)
from .langcodec import (
    Alphabet,
    Language,
    OracleTable,
    cantor_decode_step,
    cantor_encode,
    decode_membership,
    encode_language,
    index_of_string,
    string_of_index,
)
from .network import (
    Network,
    NetworkState,
    RunResult,
    Verdict,
    run,
    step,
    zero_state,
)
from .spikes import SpikeSchedule, timing_decode, timing_encode

__version__ = "0.1.0"
