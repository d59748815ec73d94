//! Offline shim for the slice of `rayon`'s API this workspace uses.
//!
//! The build environment has no network access, so instead of the real
//! work-stealing pool this shim maps rayon's scoped-spawn surface directly
//! onto [`std::thread::scope`]: every `spawn` is an OS thread joined at
//! scope exit. Callers in this workspace spawn one long-lived worker per
//! requested thread and do their own work distribution, so the missing
//! work-stealing scheduler costs nothing. The signatures match rayon 1.x,
//! keeping a later migration to the real crate a `Cargo.toml` edit.

/// Number of threads the default pool would use: the machine's available
/// parallelism (rayon's default when `RAYON_NUM_THREADS` is unset).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A scope in which tasks can be spawned; all spawned tasks complete
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task into the scope. The task may borrow from the
    /// enclosing environment and may itself spawn further tasks through
    /// the `&Scope` it receives.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }));
    }
}

/// Creates a scope, invokes `f` with it, and joins every spawned task
/// before returning `f`'s result. Panics in spawned tasks propagate.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// Runs both closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("joined task panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let counter = AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_spawn_through_scope_handle() {
        let counter = AtomicUsize::new(0);
        super::scope(|s| {
            s.spawn(|s| {
                counter.fetch_add(1, Ordering::Relaxed);
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn scope_returns_closure_result_and_borrows_env() {
        let data = [1u64, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        let ret = super::scope(|s| {
            let (lo, hi) = data.split_at(2);
            s.spawn(|_| {
                sum.fetch_add(lo.iter().sum::<u64>() as usize, Ordering::Relaxed);
            });
            s.spawn(|_| {
                sum.fetch_add(hi.iter().sum::<u64>() as usize, Ordering::Relaxed);
            });
            42
        });
        assert_eq!(ret, 42);
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
