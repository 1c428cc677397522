"""One module per benchmark workload; each exposes ``run(seed, seconds, trace)``."""

#: the IRN's public scoring entry points, wrapped as ``core.irn.score`` spans
IRN_SCORERS = (
    "score_with_objective_batch",
    "score_with_objective",
    "begin_decoding_session",
    "advance_decoding_session",
)


def irn_values(decode_before: dict, decode_after: dict, score_seconds: "list[float]") -> dict:
    """The ``core.irn.*`` layer values from two ``decode_stats`` snapshots and
    the durations of the ``core.irn.score`` spans between them."""
    decode = {key: decode_after[key] - decode_before[key] for key in decode_after}
    tokens = decode["tokens_full"] + decode["tokens_incremental"] + decode["tokens_fallback"]
    return {
        "core.irn.forwards": decode["forwards"],
        "core.irn.tokens_encoded": tokens,
        "core.irn.forward_ms": 1000.0 * sum(score_seconds) / len(score_seconds) if score_seconds else 0.0,
        "cache.kv_incremental_share": decode["tokens_incremental"] / tokens if tokens else 0.0,
    }
