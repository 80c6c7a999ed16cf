"""Boltzmann machine training on Ising graphs with pluggable samplers."""

from .model import (
    Basis,
    BoltzmannMachine,
    SpinState,
    clamp_visible,
    complete_pairs,
    convert_basis,
    convert_state,
    energy,
    energies,
    ground_states,
    load_model,
    random_machine,
    save_model,
)
from .datasets import (
    Dataset,
    adder2,
    builtin_dataset,
    load_dataset,
    load_fixture,
    logic_gate,
    save_dataset,
    two_phase,
)
from .metrics import (
    Distribution,
    conditional_probability,
    dataset_distribution,
    dkl_beta_derivatives,
    fit_beta,
    ground_state_probability_curve,
    hellinger,
    kl_divergence,
    model_probability,
    negative_conditional_log_likelihood,
    visible_marginal,
)
from .samplers import (
    Backend,
    SampleSet,
    SamplerConfig,
    draw_many,
    draw_samples,
    empirical_distribution,
    exact_sample,
    gibbs_sample,
    load_sample_set,
    merge_sample_sets,
    remote_sample,
    save_sample_set,
)
from .training import (
    Architecture,
    GradientEstimate,
    GradientMode,
    TrainingConfig,
    TrainingTrace,
    finite_difference_gradient,
    grad_dkl,
    grad_ncll,
    momentum_update,
    train_distribution,
    train_function_approximator,
)
from .errors import (
    CapacityError,
    DatasetFormatError,
    IsingError,
    ProtocolError,
    TransportError,
)

__version__ = "0.1.0"
