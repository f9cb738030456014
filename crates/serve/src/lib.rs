//! Tuning-as-a-service: a long-running server exposing the tuning loop
//! as a multi-tenant job API plus a high-QPS cached read path.
//!
//! The build is fully offline, so the HTTP layer is a hand-rolled
//! HTTP/1.1 subset over [`std::net`] (see [`http`]); everything else is
//! composition of existing subsystems:
//!
//! * jobs run through the same crash-safe run-directory machinery as
//!   `aaltune tune` (journal + per-task logs + checkpoints), so a
//!   killed server resumes its queue on restart with byte-identical
//!   trial logs ([`runner`]);
//! * tenants share one device pool with fair-share scheduling and
//!   optional hard quotas ([`admission`] + `executor::DevicePool` tag
//!   caps);
//! * `GET /best` answers from the tuning database's lock-light
//!   [`tuning_db::ReadHandle`] without ever touching the tuning loop;
//! * all activity flows through one `telemetry::MetricsRegistry`, so
//!   `aaltune top <root>` monitors a live server.

pub mod admission;
pub mod client;
pub mod http;
pub mod job;
pub mod runner;
pub mod server;
pub mod session;

pub use admission::{Admission, Reject, SubmitError};
pub use job::{JobSpec, JobState, JournalLine};
pub use server::{ServeConfig, Server};
pub use session::{DbPolicy, SessionDir, SessionSpec, TuneSession};
