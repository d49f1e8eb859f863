"""ARGAE (Pan et al., 2018): adversarially regularised graph auto-encoder.

A first-group model.  On top of the GAE reconstruction objective, a small
MLP discriminator is trained to distinguish encoder embeddings from samples
of a Gaussian prior; the encoder receives an additional generator loss that
pushes the embedding distribution towards that prior.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.models.base import GAEClusteringModel
from repro.nn import functional as F
from repro.nn.layers import MLP
from repro.nn.optim import Adam, train_step
from repro.nn.tensor import Tensor


class ARGAE(GAEClusteringModel):
    """Adversarially Regularized Graph Auto-Encoder."""

    group = "first"
    variational = False

    def __init__(
        self,
        num_features: int,
        num_clusters: int,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        learning_rate: float = 0.01,
        gamma: float = 1.0,
        seed: int = 0,
        discriminator_hidden: int = 64,
        adversarial_weight: float = 1.0,
        discriminator_lr: float = 0.001,
    ) -> None:
        super().__init__(
            num_features=num_features,
            num_clusters=num_clusters,
            hidden_dim=hidden_dim,
            latent_dim=latent_dim,
            learning_rate=learning_rate,
            gamma=gamma,
            seed=seed,
        )
        self.adversarial_weight = float(adversarial_weight)
        self.discriminator = MLP(
            [latent_dim, discriminator_hidden, 1],
            hidden_activation="relu",
            output_activation=None,
            rng=self.rng,
        )
        self._discriminator_optimizer = Adam(
            self.discriminator.parameters(), lr=discriminator_lr
        )

    # ------------------------------------------------------------------
    # adversarial machinery
    # ------------------------------------------------------------------
    def _prior_sample(self, num_nodes: int) -> np.ndarray:
        return self.rng.standard_normal((num_nodes, self.latent_dim))

    def discriminator_loss(self, embeddings: np.ndarray) -> Tensor:
        """BCE of the discriminator on real prior samples vs. fake embeddings."""
        real = Tensor(self._prior_sample(embeddings.shape[0]))
        fake = Tensor(np.asarray(embeddings, dtype=np.float64))
        real_logits = self.discriminator(real)
        fake_logits = self.discriminator(fake)
        loss_real = F.binary_cross_entropy_with_logits(real_logits, np.ones(real_logits.shape))
        loss_fake = F.binary_cross_entropy_with_logits(fake_logits, np.zeros(fake_logits.shape))
        return loss_real + loss_fake

    def generator_loss(self, z: Tensor) -> Tensor:
        """Encoder loss: make the discriminator believe embeddings are prior samples."""
        logits = self.discriminator(z)
        return F.binary_cross_entropy_with_logits(logits, np.ones(logits.shape))

    # ------------------------------------------------------------------
    # GAEClusteringModel hooks
    # ------------------------------------------------------------------
    def regularization_loss(self, z: Tensor) -> Optional[Tensor]:
        base = super().regularization_loss(z)
        adversarial = self.generator_loss(z) * self.adversarial_weight
        if base is None:
            return adversarial
        return base + adversarial

    def pretrain_step_hook(self, step: Dict[str, Tensor]) -> None:
        """Train the discriminator one step on the detached embeddings."""
        embeddings = step["z"].numpy().copy()
        train_step(
            self._discriminator_optimizer,
            lambda: {"loss": self.discriminator_loss(embeddings)},
        )

    # ------------------------------------------------------------------
    # checkpointing (repro.store)
    # ------------------------------------------------------------------
    def extra_state(self):
        state = super().extra_state()
        # The discriminator's weights live in state_dict (it is a plain
        # sub-module); its Adam moments are the extra piece a bitwise resume
        # of adversarial pretraining needs.
        state["discriminator_optimizer"] = self._discriminator_optimizer.state_dict()
        return state

    def load_extra_state(self, state) -> None:
        super().load_extra_state(state)
        optimizer_state = state.get("discriminator_optimizer")
        if optimizer_state is not None:
            self._discriminator_optimizer.load_state_dict(optimizer_state)

    def parameters(self):
        """Exclude discriminator parameters from the encoder optimiser.

        The discriminator has its own optimizer; sharing parameters between
        the two optimisers would make the adversarial game degenerate.
        """
        encoder_params = []
        seen = set()
        self.encoder._collect_parameters(encoder_params, seen)
        return encoder_params
