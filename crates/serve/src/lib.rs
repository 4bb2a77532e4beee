//! `phastlane-serve` — the simulator as a long-running job service.
//!
//! A `phastlane serve` process owns a supervised worker pool and
//! exposes the lab machinery over a deliberately small HTTP/1.1 +
//! NDJSON API (hand-rolled on `std::net`, because the workspace builds
//! offline with zero dependencies):
//!
//! | route                    | meaning                                   |
//! |--------------------------|-------------------------------------------|
//! | `POST /jobs`             | submit a lab spec (raw text or `{"spec", "workers"}`); preflighted, then queued. `400` malformed, `429` queue full, `500` cannot persist, `503` shutting down |
//! | `GET /jobs`              | all jobs' status JSON                     |
//! | `GET /jobs/<id>`         | one job's status JSON                     |
//! | `GET /jobs/<id>/report`  | the canonical report, byte-identical to `lab run --report-out` |
//! | `GET /jobs/<id>/events`  | chunked NDJSON progress stream (replays buffered history, sheds per-subscriber) |
//! | `POST /jobs/<id>/cancel` | cooperative cancellation                  |
//! | `GET /baselines`         | recorded baseline names                   |
//! | `GET /baselines/<name>`  | one checksum-verified baseline payload    |
//! | `GET /healthz`           | liveness probe                            |
//! | `GET /statsz`            | queue/job/rejection/event/job-log counters |
//! | `POST /shutdown`         | graceful stop (only with `--allow-shutdown`) |
//!
//! The acceptance bar for the whole crate is the **determinism
//! contract**: submitting a spec over the API yields a canonical
//! report byte-identical to running `phastlane lab run` on the same
//! spec, regardless of how many sessions are hitting the server
//! concurrently. Everything the server attaches to a run — event
//! fan-out, journal, cancel token, supervision — is harness plumbing
//! that cannot change a canonical bit.
//!
//! Module map: [`http`] is the wire codec, [`client`] the matching
//! client used by the CLI and CI, [`registry`] the job table and its
//! crash-safe job log, and [`server`] the accept loop, worker
//! pool, and route table.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod client;
pub mod http;
pub mod registry;
pub mod server;

pub use registry::{JobStatus, Registry};
pub use server::{start, ServeSummary, ServerConfig, ServerHandle};
