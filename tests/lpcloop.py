"""The per-symbol LPC loop the tests use as a reference.

The codec predicts one refit span at a time (``LpcState.span``, in
codec._decode_lpc) or a whole array at once
(predictor.batch_predictions).  ``LoopState`` predicts and takes one
symbol at a time on the same schedule, and ``loop_predictions`` runs it
over a stream: the predictions both must give to the bit.
"""

import numpy as np

from frgc.predictor import LpcConfig, LpcState, predict_at


class LoopState(LpcState):
    """LpcState with a prediction and a push per symbol."""

    def predict(self) -> float:
        """Prediction of the next symbol, refitting first when one is due."""
        h = self.history
        return predict_at(h, self.span()[0], len(h))

    def push(self, x: int) -> None:
        """Append the symbol just coded."""
        self.history.append(x)


def loop_predictions(xs: np.ndarray, cfg: LpcConfig) -> np.ndarray:
    """LoopState's prediction of every symbol of xs, one at a time."""
    state = LoopState(cfg)
    preds = []
    for x in xs.tolist():
        preds.append(state.predict())
        state.push(x)
    return np.array(preds, dtype=np.float64)
