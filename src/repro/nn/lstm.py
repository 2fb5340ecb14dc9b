"""A from-scratch LSTM prefetch model (the §2.1/§2.2 baseline).

Architecture (matching the compressed deployment the paper measures):
class-id input -> embedding -> single LSTM layer -> linear -> softmax over
the class vocabulary.  Training is truncated back-propagation-through-time
over a sliding window of recent transitions; gradients are hand-derived
and numerically verified in ``tests/nn/test_lstm_grads.py``.

The default configuration (vocab 128, embedding 64, hidden 160) has
~173k parameters — the paper's Table 2 lists the LSTM at 170k.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .base import evaluate_sequence_probs
from .layers import SGD, glorot, softmax


@dataclass(frozen=True)
class LSTMConfig:
    """LSTM prefetcher hyperparameters.

    Attributes:
        vocab_size: Number of miss classes (input and output).
        embed_dim: Embedding width.
        hidden_dim: LSTM state width.
        window: Truncated-BPTT window (transitions per online update).
        lr: SGD learning rate.
        clip_norm: Gradient clipping norm.
        seed: Weight-init seed.
    """

    vocab_size: int = 128
    embed_dim: int = 64
    hidden_dim: int = 160
    window: int = 8
    lr: float = 0.5
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.embed_dim, self.hidden_dim, self.window) <= 0:
            raise ValueError("all dimensions must be positive")

    @property
    def parameter_count(self) -> int:
        v, e, h = self.vocab_size, self.embed_dim, self.hidden_dim
        return v * e + (e + h) * 4 * h + 4 * h + h * v + v


class LSTM:
    """The raw batched LSTM: forward, BPTT backward, SGD update."""

    def __init__(self, config: LSTMConfig = LSTMConfig()) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        v, e, h = config.vocab_size, config.embed_dim, config.hidden_dim
        self.params: dict[str, np.ndarray] = {
            "E": rng.normal(0.0, 0.1, size=(v, e)),
            "W": glorot(rng, e + h, 4 * h),
            "b": np.zeros(4 * h),
            "Wy": glorot(rng, h, v),
            "by": np.zeros(v),
        }
        # Forget-gate bias starts positive so early state persists.
        self.params["b"][h:2 * h] = 1.0
        self.optimizer = SGD(lr=config.lr, clip_norm=config.clip_norm)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, h0: np.ndarray | None = None,
                c0: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
        """Run a batch of sequences.

        Args:
            inputs: int array (B, T) of class ids.
            h0, c0: optional initial states (B, H).

        Returns:
            (probs, cache): probs is (B, T, V); cache feeds ``backward``.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.int64))
        B, T = inputs.shape
        h_dim = self.config.hidden_dim
        p = self.params
        h = np.zeros((B, h_dim)) if h0 is None else h0.copy()
        c = np.zeros((B, h_dim)) if c0 is None else c0.copy()

        xs, zs, gates, cs, hs, tanhcs = [], [], [], [c.copy()], [h.copy()], []
        logits = np.empty((B, T, self.config.vocab_size))
        for t in range(T):
            x = p["E"][inputs[:, t]]                     # (B, E)
            z = np.concatenate([x, h], axis=1)           # (B, E+H)
            a = z @ p["W"] + p["b"]                      # (B, 4H)
            i_g = _sigmoid(a[:, 0 * h_dim:1 * h_dim])
            f_g = _sigmoid(a[:, 1 * h_dim:2 * h_dim])
            g_g = np.tanh(a[:, 2 * h_dim:3 * h_dim])
            o_g = _sigmoid(a[:, 3 * h_dim:4 * h_dim])
            c = f_g * c + i_g * g_g
            tanh_c = np.tanh(c)
            h = o_g * tanh_c
            logits[:, t] = h @ p["Wy"] + p["by"]

            xs.append(x)
            zs.append(z)
            gates.append((i_g, f_g, g_g, o_g))
            cs.append(c.copy())
            hs.append(h.copy())
            tanhcs.append(tanh_c)

        probs = softmax(logits, axis=-1)
        cache = {
            "inputs": inputs, "xs": xs, "zs": zs, "gates": gates,
            "cs": cs, "hs": hs, "tanhcs": tanhcs, "probs": probs,
        }
        return probs, cache

    # ------------------------------------------------------------------
    # Backward (full BPTT over the given window)
    # ------------------------------------------------------------------
    def backward(self, cache: dict, targets: np.ndarray,
                 mask: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Gradients of mean masked cross-entropy w.r.t. all parameters.

        Args:
            cache: From :meth:`forward`.
            targets: int array (B, T) of next-class labels.
            mask: optional float array (B, T); 0 excludes a step.
        """
        p = self.params
        inputs = cache["inputs"]
        probs = cache["probs"]
        B, T = inputs.shape
        h_dim = self.config.hidden_dim
        targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
        if mask is None:
            mask = np.ones((B, T))
        denom = max(float(mask.sum()), 1.0)

        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dh_next = np.zeros((B, h_dim))
        dc_next = np.zeros((B, h_dim))

        for t in reversed(range(T)):
            dlogits = probs[:, t].copy()
            dlogits[np.arange(B), targets[:, t]] -= 1.0
            dlogits *= (mask[:, t] / denom)[:, None]

            h_t = cache["hs"][t + 1]
            grads["Wy"] += h_t.T @ dlogits
            grads["by"] += dlogits.sum(axis=0)

            dh = dlogits @ p["Wy"].T + dh_next
            i_g, f_g, g_g, o_g = cache["gates"][t]
            tanh_c = cache["tanhcs"][t]
            c_prev = cache["cs"][t]

            do = dh * tanh_c
            dc = dh * o_g * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g_g
            dg = dc * i_g
            df = dc * c_prev
            dc_next = dc * f_g

            da = np.concatenate([
                di * i_g * (1.0 - i_g),
                df * f_g * (1.0 - f_g),
                dg * (1.0 - g_g ** 2),
                do * o_g * (1.0 - o_g),
            ], axis=1)

            grads["W"] += cache["zs"][t].T @ da
            grads["b"] += da.sum(axis=0)
            dz = da @ p["W"].T
            dx = dz[:, :self.config.embed_dim]
            dh_next = dz[:, self.config.embed_dim:]
            np.add.at(grads["E"], inputs[:, t], dx)

        return grads

    def train_batch(self, inputs: np.ndarray, targets: np.ndarray,
                    lr_scale: float = 1.0, mask: np.ndarray | None = None) -> float:
        """One SGD step on a batch of sequences; returns the mean loss."""
        probs, cache = self.forward(inputs)
        targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
        B, T = targets.shape
        if mask is None:
            mask = np.ones((B, T))
        picked = probs[np.arange(B)[:, None], np.arange(T)[None, :], targets]
        loss = float(-(np.log(np.clip(picked, 1e-12, None)) * mask).sum()
                     / max(float(mask.sum()), 1.0))
        grads = self.backward(cache, targets, mask)
        self.optimizer.apply(self.params, grads, lr_scale=lr_scale)
        return loss

    def step_state(self, input_class: int, h: np.ndarray, c: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance a (1, H) state by one input; returns (probs, h, c)."""
        probs, cache = self.forward(np.array([[input_class]]), h0=h, c0=c)
        return probs[0, 0], cache["hs"][-1], cache["cs"][-1]


class OnlineLSTM:
    """Online wrapper: sliding-window truncated BPTT + streaming state.

    This is the deployment of Figure 1: each observed miss class first
    trains the model on the transition window ending at it, then advances
    the streaming recurrent state used for prediction.
    """

    def __init__(self, config: LSTMConfig = LSTMConfig()) -> None:
        self.config = config
        self.net = LSTM(config)
        self.vocab_size = config.vocab_size
        self._window: deque[tuple[int, int]] = deque(maxlen=config.window)
        self._prev_class: int | None = None
        self._h = np.zeros((1, config.hidden_dim))
        self._c = np.zeros((1, config.hidden_dim))
        self._last_probs: np.ndarray | None = None
        self.train_steps = 0

    # -- SequenceModel interface ---------------------------------------
    def step(self, input_class: int, train: bool = True,
             lr_scale: float = 1.0) -> np.ndarray:
        self._check_class(input_class)
        if train and self._prev_class is not None:
            self._window.append((self._prev_class, input_class))
            inputs = np.array([[x for x, _ in self._window]])
            targets = np.array([[y for _, y in self._window]])
            self.net.train_batch(inputs, targets, lr_scale=lr_scale)
            self.train_steps += 1
        probs, self._h, self._c = self.net.step_state(input_class, self._h, self._c)
        self._prev_class = input_class
        self._last_probs = probs
        return probs

    def train_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> float:
        self._check_class(input_class)
        self._check_class(target_class)
        probs, _ = self.net.forward(np.array([[input_class]]))
        confidence = float(probs[0, 0, target_class])
        self.net.train_batch(np.array([[input_class]]), np.array([[target_class]]),
                             lr_scale=lr_scale)
        return confidence

    def train_pairs(self, pairs: list[tuple[int, int]],
                    lr_scale: float = 1.0) -> None:
        """One true batched SGD step over accumulated transitions (§5.1)."""
        if not pairs:
            return
        for input_class, target_class in pairs:
            self._check_class(input_class)
            self._check_class(target_class)
        inputs = np.array([[a] for a, _ in pairs])
        targets = np.array([[b] for _, b in pairs])
        self.net.train_batch(inputs, targets, lr_scale=lr_scale)

    def predict_rollout(self, width: int = 1, length: int = 1
                        ) -> list[list[tuple[int, float]]]:
        if width < 1:
            raise ValueError("rollout width must be at least 1")
        if self._last_probs is None:
            return []
        out: list[list[tuple[int, float]]] = []
        probs = self._last_probs
        h, c = self._h, self._c
        for _ in range(length):
            top = np.argsort(probs)[::-1][:width]
            out.append([(int(k), float(probs[k])) for k in top])
            probs, h, c = self.net.step_state(int(top[0]), h, c)
        return out

    def reset_state(self) -> None:
        self._h = np.zeros((1, self.config.hidden_dim))
        self._c = np.zeros((1, self.config.hidden_dim))
        self._prev_class = None
        self._last_probs = None
        self._window.clear()

    def clone(self) -> "OnlineLSTM":
        twin = OnlineLSTM(self.config)
        twin.net.params = {k: v.copy() for k, v in self.net.params.items()}
        twin._h, twin._c = self._h.copy(), self._c.copy()
        twin._prev_class = self._prev_class
        twin._window = deque(self._window, maxlen=self.config.window)
        if self._last_probs is not None:
            twin._last_probs = self._last_probs.copy()
        twin.train_steps = self.train_steps
        return twin

    def evaluate_sequence(self, classes: list[int]) -> float:
        probs = evaluate_sequence_probs(self, classes)
        return float(probs.mean()) if probs.size else 0.0

    def _check_class(self, class_id: int) -> None:
        if not 0 <= class_id < self.vocab_size:
            raise ValueError(f"class {class_id} outside vocab [0, {self.vocab_size})")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
