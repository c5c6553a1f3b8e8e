// Package vpred implements the value prediction stack of the paper:
// the computational predictors (last value, stride, 2-delta stride),
// the context-based predictors (order-k FCM and VTAGE), the
// VTAGE-2DStride hybrid used throughout the evaluation (Table 2), and
// Forward Probabilistic Counters (FPC) for confidence estimation
// (§4.2).
//
// FPC is the enabling mechanism for the whole paper: it pushes value
// misprediction rates low enough that validation can move to commit
// time and recovery can be a full pipeline squash, which in turn is
// what allows Early and Late Execution to bypass the OoO engine.
//
// Predictors implement the Predictor interface (Lookup / Train);
// NewByName resolves the names used by config.Config.PredictorName,
// and the experiments harness sweeps them for the Figure 5/6 predictor
// comparison. VTAGE and D-VTAGE read no history of their own: they are
// built on the front end's bpred.History, the one TAGE reads and the
// branch unit pushes, and register their windows with it.
package vpred
