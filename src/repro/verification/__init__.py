"""Explicit-state model checking of the protocol models (Section 5)."""


def verify_models(fast: bool = False) -> list:
    """The ``python -m repro verify`` models as ``(model, check_liveness)``.

    ``fast`` drops TokenCMP-arb, the one model that takes tens of
    seconds; ``verify --fast`` and the report's model table check the
    fast set.  TokenCMP-safety and TokenCMP-recreate are safety models,
    so liveness is checked on the other models only.
    """
    from repro.verification.dir_model import DirFlatModel
    from repro.verification.token_model import (
        TokenArbModel,
        TokenDstModel,
        TokenRecreateModel,
        TokenSafetyModel,
    )

    models = [
        (TokenSafetyModel(), False),
        (TokenDstModel(coarse_sends=True, atomic_broadcasts=True), True),
        (TokenRecreateModel(), False),
        (DirFlatModel(), True),
    ]
    if not fast:
        models.insert(2, (TokenArbModel(coarse_sends=True,
                                        atomic_broadcasts=True), True))
    return models
