//! The repository's benchmark: the serving stack driven through its
//! public API (`Engine`/`Session`, `CampaignRunner`) with seeded
//! workloads, every answer checked, and a separate traced mode that
//! times each layer from outside by wrapping the public seams.
//!
//! `run.py` builds this package, runs the `perfbench` binary once per
//! repetition (each in a fresh process, so every set-up is cold) and
//! folds the repetitions into the metrics `BENCHMARK.json` names.

pub mod campaign;
pub mod digest;
pub mod interactive;
pub mod layers;
pub mod pool;
pub mod serving;
pub mod timing;
