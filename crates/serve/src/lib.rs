//! # unimatch-serve
//!
//! The online serving subsystem of the UniMatch reproduction: a
//! std-only (zero external dependency) HTTP server that answers both
//! marketing tasks from one hot-swappable model, completing the
//! production story of Sec. III-B3 — month-by-month incremental
//! retraining feeding a fleet that serves item recommendation *and* user
//! targeting from the same embeddings.
//!
//! Architecture (details in `docs/ARCHITECTURE.md`):
//!
//! * **one query path** — `/recommend` and `/target` are the same query
//!   against two towers, so they share one job type, one handler, one
//!   batcher loop and one response encoder; the route only decides which
//!   field is parsed, which `MatchPipeline` answers, and the list key;
//! * **micro-batching** ([`batcher`]) — concurrent requests arriving
//!   within a small window are coalesced into one pipeline call, so the
//!   `unimatch-parallel` fan-out amortizes across callers; results are
//!   identical to unbatched calls;
//! * **model hot-swap** (`unimatch_core::serving::ModelHandle`) —
//!   `POST /reload` builds the next serving snapshot off-lock and swaps a
//!   pointer; in-flight batches finish on the version that admitted them;
//! * **observability** ([`metrics`]) — request/error counters, a latency
//!   histogram and the batch-size distribution, all exposed as text on
//!   `GET /metrics`;
//! * **bounded intake** ([`http`]) — capped header/body sizes, one read
//!   deadline per request, a connection cap, and graceful shutdown that
//!   drains every admitted request;
//! * **shadow deployments** ([`shadow`]) — a deterministic sample of
//!   answered traffic mirrored to a second pipeline (its own checkpoint,
//!   retriever, store format, or rerank chain) off the critical path,
//!   with paired overlap/score/lag deltas on `/metrics`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use unimatch_core::{ModelHandle, UniMatch};
//! use unimatch_data::DatasetProfile;
//! use unimatch_serve::{ServeConfig, Server};
//!
//! let log = DatasetProfile::EComp.generate(0.2, 42).filter_min_interactions(3);
//! let handle = ModelHandle::from_checkpoint(UniMatch::default(), "model.json", log)?;
//! let server = Server::start("127.0.0.1:7878", Arc::new(handle), ServeConfig::default())?;
//! println!("serving on {}", server.addr());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod brownout;
pub mod http;
pub mod metrics;
pub mod server;
pub mod shadow;

pub use brownout::{BrownoutControl, BrownoutSpec, BrownoutState, BrownoutStep};
pub use metrics::{Metrics, Route};
pub use server::{recommend_body, target_body, ServeConfig, Server};
pub use shadow::{ShadowSpec, ShadowState};
