"""Per-epoch online client data streams.

The paper makes training data time-varying: "all data are then transformed
into online data followed by Poisson distribution".  A
:class:`ClientDataStream` couples a client's class distribution with the
shared generator; each epoch it yields a fresh local dataset whose size is
supplied by :class:`repro.env.dynamics.DataVolumeProcess`.  A client's RNG
stream is created on its first draw, so an epoch only pays for the clients
whose data it materializes.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Union

import numpy as np

from repro.datasets.synthetic import ClassConditionalGenerator, Dataset
from repro.rng import StreamRef

__all__ = ["ClientDataStream", "build_client_streams"]


class ClientDataStream:
    """On-demand sampler of one client's per-epoch local dataset."""

    def __init__(
        self,
        generator: ClassConditionalGenerator,
        class_probs: np.ndarray,
        rng: Union[np.random.Generator, StreamRef],
    ) -> None:
        probs = np.asarray(class_probs, dtype=float)
        if probs.shape != (generator.num_classes,):
            raise ValueError("class_probs shape mismatch")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("class_probs must be a nonnegative distribution")
        self._bind(generator, probs / probs.sum(), rng)

    def _bind(
        self,
        generator: ClassConditionalGenerator,
        class_probs: np.ndarray,
        rng: Union[np.random.Generator, StreamRef],
    ) -> None:
        self.generator = generator
        self.class_probs = class_probs
        if isinstance(rng, StreamRef):
            self._rng_ref = rng
        else:
            self.rng = rng

    @cached_property
    def rng(self) -> np.random.Generator:
        """This stream's generator; a :class:`StreamRef` is resolved on
        first use."""
        return self._rng_ref.resolve()

    def draw(self, num_samples: int) -> Dataset:
        """Sample this epoch's local dataset (``num_samples`` examples)."""
        return self.generator.sample(
            num_samples, class_probs=self.class_probs, rng=self.rng
        )


def build_client_streams(
    generator: ClassConditionalGenerator,
    class_distributions: np.ndarray,
    rng_factory,
) -> List[ClientDataStream]:
    """One stream per client, each with an independent RNG stream.

    ``rng_factory`` is a :class:`repro.rng.RngFactory`; streams are keyed
    ``data.client.<k>`` so adding clients never perturbs existing streams,
    and each is created on the client's first draw.  The ``(M, C)``
    distribution matrix is checked and normalized once, row for row the
    same values :class:`ClientDataStream` would compute.
    """
    # Row-contiguous, so each row sum takes the same summation order as
    # ``ClientDataStream`` summing that row alone.
    dists = np.ascontiguousarray(class_distributions, dtype=float)
    if dists.ndim != 2 or dists.shape[1] != generator.num_classes:
        raise ValueError("class_distributions must be (M, num_classes)")
    totals = dists.sum(axis=1, keepdims=True)
    if np.any(dists < 0) or np.any(totals <= 0):
        raise ValueError("class_probs must be a nonnegative distribution")
    probs = dists / totals
    streams = []
    for k in range(probs.shape[0]):
        stream = ClientDataStream.__new__(ClientDataStream)
        stream._bind(
            generator, probs[k], StreamRef(rng_factory, f"data.client.{k}")
        )
        streams.append(stream)
    return streams
