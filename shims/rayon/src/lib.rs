//! Offline shim for the `rayon` surface this workspace uses.
//!
//! Parallel iterators over slices with `map` / `fold` / `reduce` /
//! `for_each` / `collect`, executed on `std::thread::scope` threads. No
//! work stealing. By default the input is split into one contiguous
//! chunk per worker. That static split is *not* within noise of the
//! real crate when per-item cost is skewed: on the 1.0-scale storm's
//! receiver stage, the two workers of a 2-vCPU Xeon were busy 1.54 s and
//! 0.46 s inside a 1.62 s parallel wall. A call that needs balance opts
//! in with [`IndexedParallelIterator::with_max_len`]: the input is cut
//! into pieces of at most `n` items, workers claim pieces from a shared
//! atomic counter, and results are still combined in piece order. The
//! API shape matches, so swapping the real rayon back in is a
//! manifest-only change.

use std::sync::atomic::{AtomicUsize, Ordering};

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Mirrors `rayon::ThreadPoolBuilder` far enough to set the global
/// parallelism level.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error from [`ThreadPoolBuilder::build_global`] (never produced by the
/// shim; the global level is freely re-settable).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = one per core).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the setting globally.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// The current global parallelism level.
pub fn current_num_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// The glob-import module, as in real rayon.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Chunk boundaries splitting `len` items over the worker count.
fn chunk_bounds(len: usize) -> Vec<(usize, usize)> {
    let workers = current_num_threads().max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        if size == 0 {
            continue;
        }
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Runs `work` over each chunk on scoped threads, collecting per-chunk
/// outputs in order. The last chunk runs on the calling thread.
fn run_chunks<T, F>(bounds: &[(usize, usize)], work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if bounds.is_empty() {
        return Vec::new();
    }
    if bounds.len() == 1 {
        let (s, e) = bounds[0];
        return vec![work(s, e)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(bounds.len() - 1);
        for &(s, e) in &bounds[..bounds.len() - 1] {
            handles.push(scope.spawn(move || work(s, e)));
        }
        let (ls, le) = bounds[bounds.len() - 1];
        let last = work(ls, le);
        let mut out: Vec<T> = handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect();
        out.push(last);
        out
    })
}

/// Piece boundaries: consecutive runs of at most `max_len` (≥ 1) items.
/// They depend only on `(len, max_len)`, never on the worker count, so a
/// fold over pieces combines the same partials at any parallelism.
fn piece_bounds(len: usize, max_len: usize) -> Vec<(usize, usize)> {
    (0..len)
        .step_by(max_len)
        .map(|s| (s, (s + max_len).min(len)))
        .collect()
}

/// Runs `work` over pieces that workers claim one at a time from a
/// shared counter, so a worker that drew cheap pieces takes more of
/// them. Per-piece outputs come back in piece order. The calling thread
/// is one of the workers.
fn run_pieces<T, F>(bounds: &[(usize, usize)], work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = current_num_threads().max(1).min(bounds.len());
    if workers <= 1 {
        return bounds.iter().map(|&(s, e)| work(s, e)).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let piece = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(s, e)) = bounds.get(piece) else {
                return done;
            };
            done.push((piece, work(s, e)));
        }
    };
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mine = claim();
        let mut all: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect();
        all.push(mine);
        all
    });
    let mut done: Vec<(usize, T)> = per_worker.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(piece, _)| piece);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Runs `work` over `iter`'s index range, with the schedule `iter` asks
/// for: static chunks by default, claimed pieces under `with_max_len`.
/// Outputs come back in index order either way. The default path keeps
/// its own runner, which pins the last chunk to the calling thread:
/// claiming the same chunks through `run_pieces` changed which thread
/// ran which chunk, and with it peak RSS through the allocator's
/// per-thread arenas (perfbench on a 2-vCPU Xeon: experiment +21 %,
/// campaign −22 %).
fn drive<P, T, F>(iter: &P, work: F) -> Vec<T>
where
    P: ParallelIterator,
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let len = iter.pi_len();
    match iter.pi_max_len() {
        None => run_chunks(&chunk_bounds(len), work),
        Some(max_len) => run_pieces(&piece_bounds(len, max_len), work),
    }
}

/// The parallel-iterator core. Implementors expose indexed access so the
/// driver can hand out contiguous chunks.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Item produced per element.
    type Item: Send;

    /// Number of elements.
    fn pi_len(&self) -> usize;

    /// Produces the element at `index`. `&self` because chunks run
    /// concurrently.
    fn pi_get(&self, index: usize) -> Self::Item;

    /// The piece cap (≥ 1) set by
    /// [`IndexedParallelIterator::with_max_len`] (`None`: one static
    /// chunk per worker). Adapters forward it.
    fn pi_max_len(&self) -> Option<usize> {
        None
    }

    /// Maps each element through `f`.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync + Send>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Per-chunk folds: each chunk (or piece, under `with_max_len`) is
    /// folded from `identity()`. Combine the partials with
    /// [`Fold::reduce`].
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync + Send,
        F: Fn(A, Self::Item) -> A + Sync + Send,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    /// Runs `f` on every element.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        let this = &self;
        let f = &f;
        drive(this, |s, e| {
            for i in s..e {
                f(this.pi_get(i));
            }
        });
    }

    /// Collects into any `FromIterator` container, preserving element
    /// order. (Real rayon bounds this on `FromParallelIterator`; every
    /// container this workspace collects into implements both.)
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.collect_vec().into_iter().collect()
    }

    /// Collects into a `Vec`, preserving order.
    fn collect_vec(self) -> Vec<Self::Item> {
        let this = &self;
        let chunks = drive(this, |s, e| {
            (s..e).map(|i| this.pi_get(i)).collect::<Vec<_>>()
        });
        chunks.into_iter().flatten().collect()
    }

    /// Reduces all elements with `op`, starting each worker at
    /// `identity()`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        let this = &self;
        let op_ref = &op;
        let partials = drive(this, |s, e| {
            let mut acc = this.pi_get(s);
            for i in (s + 1)..e {
                acc = op_ref(acc, this.pi_get(i));
            }
            acc
        });
        partials.into_iter().fold(identity(), op)
    }

    /// Sums all elements.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send + std::iter::Sum<S>,
    {
        let this = &self;
        let partials = drive(this, |s, e| (s..e).map(|i| this.pi_get(i)).sum::<S>());
        partials.into_iter().sum()
    }

    /// Counts the elements.
    fn count(self) -> usize {
        self.pi_len()
    }
}

/// Parallel iterators with known length and indexed access, as in real
/// rayon. Every shim iterator is one.
pub trait IndexedParallelIterator: ParallelIterator {
    /// Caps each unit of work at `max_len` items (0 acts as 1) and
    /// schedules the units dynamically: workers claim the next piece
    /// from a shared counter until none are left. Piece boundaries depend
    /// only on the length and `max_len`; `collect` keeps index order and
    /// `fold`/`reduce` combine partials in piece order, so results never
    /// depend on the worker count. Use it where per-item cost is skewed
    /// enough that one contiguous chunk per worker leaves workers idle.
    fn with_max_len(self, max_len: usize) -> MaxLen<Self> {
        MaxLen {
            base: self,
            max_len: max_len.max(1),
        }
    }
}

impl<P: ParallelIterator> IndexedParallelIterator for P {}

/// Piece-capped adapter returned by
/// [`IndexedParallelIterator::with_max_len`].
pub struct MaxLen<B> {
    base: B,
    max_len: usize,
}

impl<B: ParallelIterator> ParallelIterator for MaxLen<B> {
    type Item = B::Item;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, index: usize) -> B::Item {
        self.base.pi_get(index)
    }
    fn pi_max_len(&self) -> Option<usize> {
        Some(
            self.base
                .pi_max_len()
                .map_or(self.max_len, |m| m.min(self.max_len)),
        )
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a borrowing parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// Element type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrows into a parallel iterator.
    fn par_iter(&'data self) -> Self::Iter;
}

/// Borrowed-slice parallel iterator.
pub struct SliceParIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    fn pi_get(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn par_iter(&'data self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn par_iter(&'data self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data [T] {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn into_par_iter(self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelIterator for &'data Vec<T> {
    type Item = &'data T;
    type Iter = SliceParIter<'data, T>;
    fn into_par_iter(self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

/// Owned-`Vec` parallel iterator (`vec.into_par_iter()`): elements move
/// to exactly one worker each. Slots hand elements out by value from
/// `&self` (the driver visits every index exactly once, so each take
/// succeeds; the mutex is uncontended — one lock per element).
pub struct VecParIter<T: Send> {
    slots: Vec<std::sync::Mutex<Option<T>>>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn pi_len(&self) -> usize {
        self.slots.len()
    }
    fn pi_get(&self, index: usize) -> T {
        self.slots[index]
            .lock()
            .expect("vec par-iter slot poisoned")
            .take()
            .expect("vec par-iter element taken twice")
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter {
            slots: self
                .into_iter()
                .map(|v| std::sync::Mutex::new(Some(v)))
                .collect(),
        }
    }
}

/// Owned range parallel iterator (`(0..n).into_par_iter()`).
pub struct RangeParIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeParIter {
    type Item = usize;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_get(&self, index: usize) -> usize {
        self.start + index
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;
    fn into_par_iter(self) -> RangeParIter {
        RangeParIter {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

/// Map adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, U, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    U: Send,
    F: Fn(B::Item) -> U + Sync + Send,
{
    type Item = U;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, index: usize) -> U {
        (self.f)(self.base.pi_get(index))
    }
    fn pi_max_len(&self) -> Option<usize> {
        self.base.pi_max_len()
    }
}

/// Fold adapter: holds the per-worker fold; terminal ops live here.
pub struct Fold<B, ID, F> {
    base: B,
    identity: ID,
    fold_op: F,
}

impl<B, A, ID, F> Fold<B, ID, F>
where
    B: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Sync + Send,
    F: Fn(A, B::Item) -> A + Sync + Send,
{
    /// Folds each chunk (or piece), then combines the accumulators in
    /// order with `op`, starting from `identity()`.
    pub fn reduce<ID2, OP>(self, identity: ID2, op: OP) -> A
    where
        ID2: Fn() -> A + Sync + Send,
        OP: Fn(A, A) -> A + Sync + Send,
    {
        let base = &self.base;
        let fold_id = &self.identity;
        let fold_op = &self.fold_op;
        let partials = drive(base, |s, e| {
            let mut acc = fold_id();
            for i in s..e {
                acc = fold_op(acc, base.pi_get(i));
            }
            acc
        });
        partials.into_iter().fold(identity(), op)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that set the global thread count.
    static KNOB: Mutex<()> = Mutex::new(());

    fn threads(n: usize) -> MutexGuard<'static, ()> {
        let guard = KNOB.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .unwrap();
        guard
    }

    /// The pieces a `with_max_len(max_len)` fold actually combined, as
    /// the item lists of each partial, in combination order.
    fn pieces(len: usize, max_len: usize) -> Vec<Vec<usize>> {
        (0..len)
            .into_par_iter()
            .with_max_len(max_len)
            .fold(
                || vec![Vec::new()],
                |mut acc: Vec<Vec<usize>>, x| {
                    acc[0].push(x);
                    acc
                },
            )
            .reduce(Vec::new, |mut a, b| {
                a.extend(b);
                a
            })
    }

    #[test]
    fn map_fold_reduce_matches_sequential() {
        let data: Vec<u64> = (0..10_000).collect();
        let total = data
            .par_iter()
            .map(|&x| x * 2)
            .fold(|| 0u64, |acc, x| acc + x)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(total, data.iter().map(|&x| x * 2).sum::<u64>());
    }

    #[test]
    fn collect_preserves_order() {
        let data: Vec<usize> = (0..1000).collect();
        let doubled = data.par_iter().map(|&x| x * 2).collect_vec();
        assert_eq!(doubled, data.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let data: Vec<u64> = Vec::new();
        let total = data
            .par_iter()
            .map(|&x| x)
            .fold(|| 0u64, |a, x| a + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 0);
        assert_eq!(data.par_iter().map(|&x| x).collect_vec(), Vec::<u64>::new());
    }

    #[test]
    fn thread_knob_applies() {
        let _knob = threads(2);
        assert_eq!(crate::current_num_threads(), 2);
        crate::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn with_max_len_collect_preserves_order() {
        let _knob = threads(4);
        let data: Vec<usize> = (0..1000).collect();
        let want: Vec<usize> = data.iter().map(|&x| x * 3).collect();
        let capped_first = data
            .par_iter()
            .with_max_len(7)
            .map(|&x| x * 3)
            .collect_vec();
        let capped_last = data
            .par_iter()
            .map(|&x| x * 3)
            .with_max_len(7)
            .collect_vec();
        assert_eq!(capped_first, want);
        assert_eq!(capped_last, want);
    }

    #[test]
    fn with_max_len_non_commutative_fold_and_reduce_ignore_thread_count() {
        let words: Vec<String> = (0..500).map(|i| format!("{i},")).collect();
        let want: String = words.concat();
        for n in [1, 2, 8] {
            let _knob = threads(n);
            let folded = words
                .par_iter()
                .with_max_len(32)
                .fold(String::new, |acc, w| acc + w)
                .reduce(String::new, |a, b| a + &b);
            assert_eq!(folded, want, "fold/reduce at {n} threads");
            let reduced = words
                .par_iter()
                .with_max_len(32)
                .map(|w| w.clone())
                .reduce(String::new, |a, b| a + &b);
            assert_eq!(reduced, want, "reduce at {n} threads");
            assert_eq!(pieces(100, 32).len(), 4, "piece count at {n} threads");
        }
    }

    #[test]
    fn with_max_len_on_empty_input() {
        let _knob = threads(4);
        let data: Vec<u64> = Vec::new();
        let total = data
            .par_iter()
            .with_max_len(4)
            .fold(|| 0u64, |a, &x| a + x)
            .reduce(|| 7, |a, b| a + b);
        assert_eq!(total, 7, "no pieces: only the reduce identity");
        assert!(data.par_iter().with_max_len(4).collect_vec().is_empty());
        assert!(pieces(0, 4).is_empty());
    }

    #[test]
    fn with_max_len_at_least_len_is_one_piece() {
        let _knob = threads(4);
        assert_eq!(pieces(10, 10), vec![(0..10).collect::<Vec<_>>()]);
        assert_eq!(pieces(10, 1000), vec![(0..10).collect::<Vec<_>>()]);
        assert_eq!(
            pieces(10, 4),
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]
        );
    }

    #[test]
    fn with_max_len_zero_acts_as_one() {
        let _knob = threads(4);
        assert_eq!(pieces(10, 0), (0..10).map(|i| vec![i]).collect::<Vec<_>>());
        let doubled = (0..10)
            .into_par_iter()
            .with_max_len(0)
            .map(|x| x * 2)
            .collect_vec();
        assert_eq!(doubled, (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "rayon shim worker panicked")]
    fn default_path_worker_panic_propagates() {
        let _knob = threads(2);
        let caller = std::thread::current().id();
        // Two items, two workers: one chunk each. Neither chunk finishes
        // until both have started, so a spawned worker holds one.
        let both_started = std::sync::Barrier::new(2);
        (0..2).into_par_iter().for_each(|_| {
            both_started.wait();
            assert_eq!(
                std::thread::current().id(),
                caller,
                "chunk failed on a spawned worker"
            );
        });
    }

    #[test]
    #[should_panic(expected = "rayon shim worker panicked")]
    fn with_max_len_worker_panic_propagates() {
        let _knob = threads(2);
        let caller = std::thread::current().id();
        // Two one-item pieces, two workers: neither piece finishes until
        // both have been claimed, so the spawned worker holds one.
        let both_claimed = std::sync::Barrier::new(2);
        (0..2).into_par_iter().with_max_len(1).for_each(|_| {
            both_claimed.wait();
            assert_eq!(
                std::thread::current().id(),
                caller,
                "piece failed on a spawned worker"
            );
        });
    }
}
