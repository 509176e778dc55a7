//! The engine's parallelism knob: how many threads a fixpoint may use, and
//! the shared worker pool they run on.
//!
//! [`Parallelism`] is a small, cheaply clonable handle threaded through the
//! planner ([`crate::planner::Plan::parallelize`]), the semi-naive driver
//! ([`crate::seminaive::seminaive_resume`]), and the service's delta
//! maintenance ([`crate::planner::Plan::resume`]). It carries:
//!
//! * the **thread count** (= shard count per parallel round), and
//! * the **minimum delta size** below which a round stays sequential — the
//!   cost model's cutover point ([`crate::planner::CostModel::parallel_cutover`]):
//!   sharding, dispatch, and merge have a fixed per-round price that only a
//!   large enough delta amortizes.
//!
//! Pools are **engine-owned and shared**: two `Parallelism` handles asking
//! for the same thread count reuse one process-wide [`WorkerPool`] (kept in
//! a registry of weak references), so the planner's fixpoints and the
//! service's maintenance never stack two competing pools of threads.
//! `Parallelism::sequential()` carries no pool at all and makes every
//! round of the driver run its plain sequential body — the default
//! everywhere; results and statistics are the same under any knob.

use crate::pool::WorkerPool;
use linrec_datalog::hash::FastMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Process-wide pool registry: one pool per distinct thread count, kept
/// alive only while some `Parallelism` handle references it.
fn shared_pool(threads: usize) -> Arc<WorkerPool> {
    static POOLS: OnceLock<Mutex<FastMap<usize, Weak<WorkerPool>>>> = OnceLock::new();
    let registry = POOLS.get_or_init(|| Mutex::new(FastMap::default()));
    let mut map = registry.lock().expect("pool registry poisoned");
    if let Some(pool) = map.get(&threads).and_then(Weak::upgrade) {
        return pool;
    }
    let pool = Arc::new(WorkerPool::new(threads));
    map.insert(threads, Arc::downgrade(&pool));
    pool
}

/// Environment variable overriding the engine's default thread count
/// (read by [`Parallelism::from_env`]; used by CI to force the concurrent
/// path on machines whose available parallelism is low).
pub const THREADS_ENV: &str = "LINREC_THREADS";

/// The most threads `--threads` or [`THREADS_ENV`] may ask for. A pool
/// spawns all its workers up front, so a larger count from outside the
/// program is refused where it is parsed ([`parse_thread_count`]).
pub const MAX_THREADS: usize = 64;

/// Why a thread count (`--threads N`, [`THREADS_ENV`]) was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadCountError {
    /// Not a non-negative integer.
    NotANumber(String),
    /// Above [`MAX_THREADS`].
    TooMany(usize),
}

impl fmt::Display for ThreadCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadCountError::NotANumber(text) => write!(f, "{text:?} is not a thread count"),
            ThreadCountError::TooMany(n) => {
                write!(f, "{n} threads is above the limit of {MAX_THREADS}")
            }
        }
    }
}

/// Parse a thread count, refusing one above [`MAX_THREADS`].
pub fn parse_thread_count(text: &str) -> Result<usize, ThreadCountError> {
    match text.parse() {
        Ok(n) if n > MAX_THREADS => Err(ThreadCountError::TooMany(n)),
        Ok(n) => Ok(n),
        Err(_) => Err(ThreadCountError::NotANumber(text.to_owned())),
    }
}

/// How parallel a fixpoint evaluation may be. See the module docs.
#[derive(Clone)]
pub struct Parallelism {
    threads: usize,
    min_delta: usize,
    pool: Option<Arc<WorkerPool>>,
}

impl Parallelism {
    /// No parallelism: every round runs on the calling thread. This is the
    /// default for every plan and the behavior of all pre-existing entry
    /// points.
    pub fn sequential() -> Parallelism {
        Parallelism {
            threads: 1,
            min_delta: usize::MAX,
            pool: None,
        }
    }

    /// Up to `threads`-way sharding per round, on the shared engine pool.
    /// The sequential cutover defaults to the stock cost model's
    /// [`crate::planner::CostModel::parallel_cutover`]; tune it with
    /// [`Parallelism::with_min_delta`]. `threads <= 1` is sequential.
    pub fn new(threads: usize) -> Parallelism {
        if threads <= 1 {
            return Parallelism::sequential();
        }
        Parallelism {
            threads,
            min_delta: crate::planner::CostModel::default().parallel_cutover(threads),
            pool: Some(shared_pool(threads)),
        }
    }

    /// One thread per available core (`std::thread::available_parallelism`).
    pub fn available() -> Parallelism {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Thread count from the `LINREC_THREADS` environment variable, falling
    /// back to [`Parallelism::available`] when unset, unparsable or above
    /// [`MAX_THREADS`].
    pub fn from_env() -> Parallelism {
        Parallelism::try_from_env().unwrap_or_else(|_| Parallelism::available())
    }

    /// [`Parallelism::from_env`] that refuses a set but unusable
    /// `LINREC_THREADS` instead of falling back, before any pool is built.
    pub fn try_from_env() -> Result<Parallelism, ThreadCountError> {
        match std::env::var(THREADS_ENV) {
            Ok(text) => parse_thread_count(&text).map(Parallelism::new),
            Err(_) => Ok(Parallelism::available()),
        }
    }

    /// Override the minimum delta size for a parallel round (rounds with
    /// `|Δ| <` this stay sequential). Property tests set it to 1 so tiny
    /// random deltas still exercise the concurrent path.
    pub fn with_min_delta(mut self, min_delta: usize) -> Parallelism {
        if self.pool.is_some() {
            self.min_delta = min_delta;
        }
        self
    }

    /// The maximum shard/thread count per round (1 when sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rounds with a delta smaller than this run sequentially.
    pub fn min_delta(&self) -> usize {
        self.min_delta
    }

    /// True iff this knob can ever run a round in parallel.
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// The shared pool, when parallel.
    pub(crate) fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::sequential()
    }
}

impl fmt::Debug for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Parallelism")
            .field("threads", &self.threads)
            .field("min_delta", &self.min_delta)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_has_no_pool_and_never_fires() {
        let p = Parallelism::sequential();
        assert_eq!(p.threads(), 1);
        assert!(!p.is_parallel());
        assert!(p.pool().is_none());
        // min_delta override on a sequential knob is a no-op.
        assert!(!p.with_min_delta(1).is_parallel());
    }

    #[test]
    fn same_thread_count_shares_one_pool() {
        let a = Parallelism::new(3);
        let b = Parallelism::new(3);
        let c = Parallelism::new(2);
        assert!(Arc::ptr_eq(a.pool().unwrap(), b.pool().unwrap()));
        assert!(!Arc::ptr_eq(a.pool().unwrap(), c.pool().unwrap()));
        assert_eq!(a.pool().unwrap().threads(), 3);
    }

    #[test]
    fn one_thread_degrades_to_sequential() {
        assert!(!Parallelism::new(1).is_parallel());
        assert!(!Parallelism::new(0).is_parallel());
        assert!(Parallelism::new(2).is_parallel());
    }

    #[test]
    fn thread_counts_above_the_limit_are_refused_before_any_pool_exists() {
        assert_eq!(
            parse_thread_count("100000"),
            Err(ThreadCountError::TooMany(100_000))
        );
        assert_eq!(
            parse_thread_count(&(MAX_THREADS + 1).to_string()),
            Err(ThreadCountError::TooMany(MAX_THREADS + 1))
        );
        assert_eq!(parse_thread_count("64"), Ok(MAX_THREADS));
        assert_eq!(parse_thread_count("0"), Ok(0));
        assert!(matches!(
            parse_thread_count("-3"),
            Err(ThreadCountError::NotANumber(_))
        ));
        assert!(parse_thread_count("100000")
            .unwrap_err()
            .to_string()
            .contains("limit of 64"));
    }

    #[test]
    fn min_delta_override_sticks() {
        let p = Parallelism::new(4).with_min_delta(1);
        assert_eq!(p.min_delta(), 1);
        assert!(Parallelism::new(4).min_delta() > 1);
    }
}
