"""Lockstep Rec2Inf / vanilla rollouts against the per-instance Algorithm 1 loop.

``generate_paths_batch`` steps every live instance through one backbone
``score_next_batch`` per step index.  Its paths must equal both the
per-instance loop over ``next_step`` and a reference that ranks each step's
candidates from one scalar ``score_next`` call, as before batching.
"""

import numpy as np
import pytest

from repro.core.influence_path import generate_influence_path
from repro.core.rec2inf import Rec2Inf
from repro.core.vanilla import VanillaInfluential
from repro.models.bpr import BPR
from repro.models.caser import Caser
from repro.models.gru4rec import GRU4Rec
from repro.models.markov import MarkovChainRecommender
from repro.models.pop import Popularity
from repro.models.sasrec import SASRec
from repro.models.transrec import TransRec
from repro.utils.exceptions import ConfigurationError

_NEURAL = dict(embedding_dim=12, epochs=1, batch_size=32, max_sequence_length=16, seed=0)

BACKBONES = {
    "pop": lambda: Popularity(),
    "markov": lambda: MarkovChainRecommender(),
    "bpr": lambda: BPR(embedding_dim=12, epochs=1, seed=0),
    "transrec": lambda: TransRec(embedding_dim=12, epochs=1, seed=0),
    "gru4rec": lambda: GRU4Rec(hidden_size=12, **_NEURAL),
    "caser": lambda: Caser(window=4, num_horizontal=4, num_vertical=1, **_NEURAL),
    "sasrec": lambda: SASRec(num_heads=2, num_layers=1, **_NEURAL),
}


@pytest.fixture(scope="module", params=sorted(BACKBONES))
def backbone(request, tiny_split):
    return BACKBONES[request.param]().fit(tiny_split)


def _scalar_top_k(model, history, k, user_index, exclude):
    """The pre-batching ``top_k``: one scalar ``score_next`` per call."""
    scores = np.asarray(model.score_next(history, user_index), dtype=np.float64).copy()
    scores[0] = -np.inf
    for item in exclude:
        scores[item] = -np.inf
    k = min(k, np.sum(np.isfinite(scores)))
    return [int(i) for i in np.argsort(-scores, kind="stable")[:k]]


def _reference_step(adapted, history, objective, path, user_index):
    """The pre-lockstep candidate rule on the backbone's scalar scores."""
    sequence = list(history) + list(path)
    exclude = [] if adapted.allow_repeats else sequence
    candidates = _scalar_top_k(
        adapted.backbone, sequence, adapted.candidate_k, user_index, exclude
    )
    if not candidates:
        return None
    if isinstance(adapted, VanillaInfluential):
        return candidates[0]
    if objective in candidates:
        return objective
    return adapted.distance.closest_to(objective, candidates)


def _reference_path(adapted, history, objective, user_index, max_length):
    path = []
    while len(path) < max_length:
        item = _reference_step(adapted, history, objective, path, user_index)
        if item is None:
            break
        path.append(int(item))
        if item == objective:
            break
    return path


def _instances(split, count=10):
    rng = np.random.default_rng(3)
    vocab_size = split.corpus.vocab.size
    instances = []
    for index, sequence in enumerate(split.train[:count]):
        history = [int(item) for item in sequence.items[: 3 + index % 7]]
        objective = int(rng.integers(1, vocab_size))
        while objective in history:
            objective = int(rng.integers(1, vocab_size))
        user = None if index % 3 == 0 else int(sequence.user_index)
        instances.append((history, objective, user))
    return instances


def _assert_lockstep_matches(adapted, instances, max_length):
    histories = [instance[0] for instance in instances]
    objectives = [instance[1] for instance in instances]
    users = [instance[2] for instance in instances]
    lockstep = adapted.generate_paths_batch(histories, objectives, users, max_length=max_length)
    for (history, objective, user), path in zip(instances, lockstep):
        assert path == generate_influence_path(
            adapted, history, objective, user_index=user, max_length=max_length
        )
        assert path == _reference_path(adapted, history, objective, user, max_length)
    return lockstep


def _adaptations(backbone, split, **overrides):
    rec2inf = Rec2Inf(backbone, candidate_k=overrides.pop("candidate_k", 8), fit_backbone=False,
                      **overrides).fit(split)
    vanilla = VanillaInfluential(backbone, fit_backbone=False, **overrides).fit(split)
    return rec2inf, vanilla


class TestLockstepRollouts:
    def test_matches_per_instance_loop(self, backbone, tiny_split):
        for adapted in _adaptations(backbone, tiny_split):
            _assert_lockstep_matches(adapted, _instances(tiny_split), max_length=8)

    def test_allow_repeats(self, backbone, tiny_split):
        for adapted in _adaptations(backbone, tiny_split, allow_repeats=True):
            _assert_lockstep_matches(adapted, _instances(tiny_split), max_length=6)

    def test_max_length_one(self, backbone, tiny_split):
        for adapted in _adaptations(backbone, tiny_split):
            paths = _assert_lockstep_matches(adapted, _instances(tiny_split), max_length=1)
            assert all(len(path) == 1 for path in paths)

    def test_candidate_k_beyond_finite_items(self, backbone, tiny_split):
        """A candidate set larger than the finite-scored items left: the
        objective is then always a candidate and every path stops at step 1."""
        vocab_size = tiny_split.corpus.vocab.size
        rec2inf, _ = _adaptations(backbone, tiny_split, candidate_k=vocab_size + 10)
        instances = _instances(tiny_split)
        paths = _assert_lockstep_matches(rec2inf, instances, max_length=5)
        assert paths == [[objective] for _, objective, _ in instances]

    def test_instances_finish_at_different_steps(self, backbone, tiny_split):
        """Histories that leave 1, 2 or 4 unseen items (the objective already
        seen) run out of candidates after exactly that many steps, while the
        rest of the batch keeps stepping."""
        vocab_size = tiny_split.corpus.vocab.size
        everything = list(range(1, vocab_size))
        spares = (1, 4, 2)
        instances = [(everything[:-spare], everything[0], None) for spare in spares]
        instances += _instances(tiny_split, count=3)
        for adapted in _adaptations(backbone, tiny_split, candidate_k=vocab_size + 10):
            paths = _assert_lockstep_matches(adapted, instances, max_length=vocab_size)
            assert [len(path) for path in paths[: len(spares)]] == list(spares)

    def test_early_stop_when_objective_is_a_candidate(self, backbone, tiny_split):
        rec2inf, _ = _adaptations(backbone, tiny_split, candidate_k=20)
        instances = _instances(tiny_split)
        paths = _assert_lockstep_matches(rec2inf, instances, max_length=12)
        reached = [path[-1] == objective for path, (_, objective, _) in zip(paths, instances)]
        assert any(reached)
        for path, (_, objective, _) in zip(paths, instances):
            assert objective not in path[:-1]


class TestPopularityTies:
    def test_ties_keep_stable_index_order(self, tiny_split):
        pop = Popularity().fit(tiny_split)
        vanilla = VanillaInfluential(pop, fit_backbone=False).fit(tiny_split)
        counts = pop.score_next([])
        tied = [value for value in np.unique(counts[1:]) if np.sum(counts == value) > 1]
        assert tied, "the tiny corpus should contain popularity ties"
        paths = vanilla.generate_paths_batch([[]], [0], max_length=len(counts) - 1)
        order = np.argsort(-np.where(np.arange(len(counts)) == 0, -np.inf, counts), kind="stable")
        assert paths[0] == [int(item) for item in order[: len(paths[0])]]


class TestValidation:
    def test_rejects_non_positive_max_length(self, fitted_markov, tiny_split):
        vanilla = VanillaInfluential(fitted_markov, fit_backbone=False).fit(tiny_split)
        with pytest.raises(ConfigurationError):
            vanilla.generate_paths_batch([[1, 2]], [3], max_length=0)

    def test_rejects_mismatched_objectives(self, fitted_markov, tiny_split):
        vanilla = VanillaInfluential(fitted_markov, fit_backbone=False).fit(tiny_split)
        with pytest.raises(ConfigurationError):
            vanilla.generate_paths_batch([[1, 2], [3]], [4])

    def test_empty_batch(self, fitted_markov, tiny_split):
        vanilla = VanillaInfluential(fitted_markov, fit_backbone=False).fit(tiny_split)
        assert vanilla.generate_paths_batch([], []) == []


class TestTopKBatch:
    def test_rows_match_scalar_top_k(self, backbone, tiny_split):
        instances = _instances(tiny_split)
        histories = [history for history, _, _ in instances]
        users = [user for _, _, user in instances]
        excludes = [history[::2] for history in histories]
        for k in (1, 5, tiny_split.corpus.vocab.size + 3):
            batch = backbone.top_k_batch(histories, k, users, excludes)
            assert batch == [
                _scalar_top_k(backbone, history, k, user, exclude)
                for history, user, exclude in zip(histories, users, excludes)
            ]
            assert backbone.top_k(histories[0], k, users[0], set(excludes[0])) == batch[0]
