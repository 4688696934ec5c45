//! Joint estimation & exploitation: the sampling side (paper §4).
//!
//! * [`SampleSizeRule`] — how many tuples to sample per group: a fixed
//!   fraction (Experiment 1 uses 5%), a constant per group (§6.3's
//!   `Constant(c)` scheme), or the paper's rule of thumb
//!   `F_a = num · t_a · n^{-1/3}` (§4.3, the `Two-Third-Power` scheme).
//! * [`Ledger`] — the evidence one query holds in one grouping, opened
//!   by the query's one read of the grouping and grown by what the query
//!   evaluates. Sampling draws and evaluates through the audited invoker
//!   (sampling cost is *included* in the algorithm's cost, §6.2), and only
//!   a group's shortfall against its target is bought: every row already
//!   evaluated counts for free — the 1% labelled for predictor selection
//!   (§4.4), an earlier round or search step, or an earlier query of the
//!   session. What the groups already know is read once, when the ledger
//!   opens ([`UdfInvoker::scan_groups`]): each 64-row word the groups
//!   touch is loaded and settled once, into a plane of the decided rows
//!   and one of those that passed. That read is the query's only one of
//!   its grouping. Each later draw, each search step, each round's
//!   re-plan and each execution ([`crate::execute_plan`]) reads the
//!   ledger; the draws and the rows an execution evaluated are added to
//!   it as their answers land, so nothing re-reads the grouping. The
//!   per-group tally `(decided, passed)` is two ANDs and two popcounts
//!   per `(word, mask)` run of the ledger's planes ([`GroupBy::counts`]),
//!   taken when a step first reads it after the planes changed.
//!   [`Ledger::estimated_groups`] is the one place the optimizer's input
//!   is built from counts.
//!
//!   A draw reads the ledger's decided plane: each group draws its
//!   shortfall by rank among its undecided bits, `sample_indices` picks
//!   ranks and prefix popcounts map each rank to its row — the rows,
//!   order and draws of indexing a list of the undecided rows, which is
//!   never built — into one plane, evaluated as one batch
//!   ([`UdfInvoker::evaluate_plane`]).
//!
//!   **What a query steers by.** The ledger is all a query steers by:
//!   what its opening read saw, plus what the query evaluated itself.
//!   The live memo and session store are read only to answer a row the
//!   query has already chosen to evaluate, so another query in flight
//!   can change what this one pays — a row it landed is a free reuse —
//!   but never what this one draws, plans or returns.
//! * [`Sampling`] — how Intel-Sample sizes its first sample: a
//!   [`SampleSizeRule`], or [`Sampling::Search`], §4.3's adaptive scheme
//!   (`adaptive_num_search`): grow `num` step by step, and stop when the
//!   estimated total cost (sampling spent plus planned execution) would
//!   start rising. The rise is taken in expectation, before the step,
//!   because one realised cost after it is noisy: from the current
//!   posterior, each group keeping its mean and its variance shrinking
//!   to a Beta's after the step's draws, predict the planned execution
//!   after the step, and take the step only if it is predicted to fall
//!   by more than the draws cost. The returned plan is solved over every
//!   row the search drew.

use crate::optimize::{solve_estimated, CorrelationModel, EstimatedGroup, PlanError};
use crate::plan::Plan;
use crate::query::QuerySpec;
use expred_exec::ExecContext;
use expred_stats::estimator::{beta_variance, SelectivityEstimate};
use expred_stats::rng::Prng;
use expred_table::{GroupBy, RowSet};
use expred_udf::UdfInvoker;
use std::cell::OnceCell;

/// How many tuples to sample from each group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleSizeRule {
    /// Sample `fraction · t_a` tuples from each group (so `fraction` of
    /// the whole table).
    Fraction(f64),
    /// Sample a constant number of tuples per group.
    Constant(usize),
    /// The paper's rule of thumb: `F_a = num · t_a · n^{-1/3}`.
    TwoThirdPower(f64),
}

impl SampleSizeRule {
    /// Target sample size for a group of `t_a` tuples in a table of `n`.
    pub(crate) fn sample_size(&self, group_size: usize, total_rows: usize) -> usize {
        let t = group_size as f64;
        let raw = match self {
            SampleSizeRule::Fraction(f) => f * t,
            SampleSizeRule::Constant(c) => *c as f64,
            SampleSizeRule::TwoThirdPower(num) => num * t * (total_rows as f64).powf(-1.0 / 3.0),
        };
        (raw.round().max(0.0) as usize).min(group_size)
    }
}

/// How Intel-Sample sizes its first sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Sample each group per a fixed rule, and plan on that sample.
    Rule(SampleSizeRule),
    /// §4.3's parameter-free search: grow `num` in the Two-Third-Power
    /// rule by 1.4× per step, at most 16 steps, while the next step is
    /// predicted to cut the planned execution by more than its draws
    /// cost — the paper's "until the estimated total cost starts rising",
    /// in expectation. The first round runs the plan solved over every
    /// row the search drew.
    Search,
}

/// What one query knows of one grouping: the plane of the rows it
/// holds an answer for, the plane of those of them that passed, and
/// each group's `(decided, passed)` counts — `F_a` and `F⁺_a`, the
/// evidence §4.1's estimates, §4.2's rounds and §4.3's search all plan
/// on, and the decided rows execution returns or drops without a plan.
///
/// [`Ledger::open`] is the query's one read of the grouping; from then
/// on the ledger grows only by what the query evaluates itself:
/// [`Ledger::sample`]'s draws, and the rows [`crate::execute_plan`]
/// evaluated. A row another query decides after the ledger opened is
/// not in it, so it steers nothing (the module docs).
pub struct Ledger<'q> {
    groups: &'q GroupBy,
    invoker: &'q UdfInvoker<'q>,
    /// The rows behind the counts, and those of them that passed.
    decided: RowSet,
    passed: RowSet,
    /// Per group, its `[decided, passed]` rows, tallied from the planes
    /// when first read after they changed: the rows a query's last
    /// execution adds are never read, so they are never tallied.
    counts: OnceCell<Vec<[usize; 2]>>,
}

impl<'q> Ledger<'q> {
    /// Opens the ledger of `groups`: what `invoker`'s query and session
    /// have decided of its rows, read in one pass.
    pub fn open(groups: &'q GroupBy, invoker: &'q UdfInvoker<'q>) -> Self {
        let (decided, passed) = invoker.scan_groups(groups);
        Self {
            groups,
            invoker,
            decided,
            passed,
            counts: OnceCell::new(),
        }
    }

    /// The grouping the ledger was opened over.
    pub(crate) fn groups(&self) -> &'q GroupBy {
        self.groups
    }

    /// The invoker the query evaluates through and is charged to.
    pub(crate) fn invoker(&self) -> &'q UdfInvoker<'q> {
        self.invoker
    }

    /// The rows the ledger holds an answer for, a plane over the table.
    pub(crate) fn decided(&self) -> &RowSet {
        &self.decided
    }

    /// The decided rows that passed.
    pub(crate) fn passed(&self) -> &RowSet {
        &self.passed
    }

    /// Per group, its `[decided, passed]` rows: two ANDs and two
    /// popcounts per `(word, mask)` run, folded per group
    /// ([`GroupBy::counts`], with the POPCNT instruction where the CPU
    /// has it), once per change of the planes.
    fn counts(&self) -> &[[usize; 2]] {
        self.counts
            .get_or_init(|| self.groups.counts([&self.decided, &self.passed]))
    }

    /// Samples every group up to `rule`'s target, evaluating through the
    /// invoker under an execution context, and adds the draws: only a
    /// group's shortfall incurs retrieval + evaluation cost.
    ///
    /// Each group, in group order, draws its shortfall by rank among the
    /// rows the ledger has not decided, `mask & !decided` over its runs:
    /// `sample_indices` picks ranks, and prefix popcounts map each rank
    /// to its row — the rows, order and draws of indexing a list of the
    /// undecided rows, which is never built. The draws land in one plane,
    /// evaluated as **one** executor call ([`UdfInvoker::evaluate_plane`]):
    /// groups partition the rows, so no draw can depend on another
    /// group's answers, and a wide executor gets one deep batch instead
    /// of a barrier per group. A drawn row another query of the session
    /// landed since the ledger opened is answered from the store, a reuse
    /// instead of an evaluation; the draw is the same.
    ///
    /// Row selection is drawn on the calling thread and every batched row
    /// is distinct and undecided, so counts and charged costs are
    /// byte-identical across backends for a fixed seed.
    pub fn sample(&mut self, rule: SampleSizeRule, rng: &mut Prng, ctx: &ExecContext<'_>) {
        let need = self.shortfalls(rule);
        if need.iter().all(|&need| need == 0) {
            return;
        }
        let mut batch = RowSet::new(self.invoker.table().num_rows());
        let mut open = Vec::new();
        for (g, &need) in need.iter().enumerate().filter(|&(_, &need)| need > 0) {
            open.clear();
            open.extend(
                self.groups
                    .runs(g)
                    .map(|(word, mask)| (word, mask & !self.decided.word(word as usize)))
                    .filter(|&(_, mask)| mask != 0),
            );
            draw_by_rank(&open, need, rng, |row| batch.insert(row));
        }
        self.invoker.charge_retrievals(batch.len() as u64);
        let passed = self.invoker.evaluate_plane(ctx.executor, &batch);
        self.add(&batch, &passed);
    }

    /// Each group's shortfall against `rule`'s target: the rows
    /// [`Ledger::sample`] draws from it. Never more than the group's
    /// undecided rows, since the ledger counts every row it holds.
    fn shortfalls(&self, rule: SampleSizeRule) -> Vec<usize> {
        let n = self.groups.num_rows();
        self.counts()
            .iter()
            .enumerate()
            .map(|(g, &[decided, _])| {
                rule.sample_size(self.groups.size(g), n)
                    .saturating_sub(decided)
            })
            .collect()
    }

    /// Adds rows this query evaluated — `evaluated`, and those of them
    /// that passed — to the ledger. A row counts once: the query never
    /// evaluates a row it already holds an answer for.
    pub(crate) fn add(&mut self, evaluated: &RowSet, passed: &RowSet) {
        debug_assert_eq!(self.decided.intersection_len(evaluated), 0);
        self.counts.take();
        self.decided.union_with(evaluated);
        self.passed.union_with(passed);
    }

    /// The optimizer's input: per group its size, its counts and the Beta
    /// posterior over them (§4.1).
    pub fn estimated_groups(&self) -> Vec<EstimatedGroup> {
        let estimated: Vec<EstimatedGroup> = self
            .counts()
            .iter()
            .enumerate()
            .map(|(g, &[decided, passed])| {
                let estimate = SelectivityEstimate::from_sample(passed as u64, decided as u64);
                EstimatedGroup {
                    size: self.groups.size(g) as f64,
                    sampled: decided as f64,
                    sampled_positive: passed as f64,
                    sel: estimate.mean(),
                    var: estimate.variance(),
                }
            })
            .collect();
        #[cfg(test)]
        tests::check_against_the_retally(self, &estimated);
        estimated
    }
}

/// Draws `need` of the rows set in `open` — `(word, mask)` runs,
/// ascending by word — by rank, handing each to `take`, and returns how
/// many it drew: `rng.sample_indices` picks ranks among the rows (rank 0
/// the lowest row), and each rank is found through the runs' prefix
/// popcounts and one [`select`] within its run. The rows, their order and
/// the draws are those of indexing the rows listed out, without the list.
/// Fewer than `need` rows in `open` draws them all.
pub(crate) fn draw_by_rank(
    open: &[(u32, u64)],
    need: usize,
    rng: &mut Prng,
    mut take: impl FnMut(usize),
) -> usize {
    // Rows in the runs before each run.
    let mut before = Vec::with_capacity(open.len());
    let mut count = 0;
    for &(_, mask) in open {
        before.push(count);
        count += mask.count_ones() as usize;
    }
    let ranks = rng.sample_indices(count, need);
    for &rank in &ranks {
        // The last run starting at or below `rank`: an empty run shares
        // its start with the next, so it is never the one picked.
        let run = before.partition_point(|&start| start <= rank) - 1;
        let (word, mask) = open[run];
        take(word as usize * 64 + select(mask, (rank - before[run]) as u32) as usize);
    }
    ranks.len()
}

/// The position of the set bit of `mask` with `rank` set bits below it
/// (`rank < mask.count_ones()`), without a loop or a branch: the byte
/// lanes' running popcounts find the byte that holds it, and the same
/// count over that byte's bits, one to a lane, finds the bit.
fn select(mask: u64, rank: u32) -> u32 {
    // One in every byte lane, and every lane's top bit.
    let (ones, highs) = (0x0101_0101_0101_0101_u64, 0x8080_8080_8080_8080_u64);
    // How many byte lanes of `running` — a running count, at most 64 per
    // lane, so no lane borrows from the next — are at most `rank`.
    let lanes_at_most = |running: u64, rank: u32| {
        ((((u64::from(rank) * ones) | highs) - running) & highs).count_ones()
    };
    let mut counts = mask - ((mask >> 1) & 0x5555_5555_5555_5555);
    counts = (counts & 0x3333_3333_3333_3333) + ((counts >> 2) & 0x3333_3333_3333_3333);
    counts = (counts + (counts >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Lane `i`: the set bits of bytes `0..=i`.
    let running = counts.wrapping_mul(ones);
    let byte = lanes_at_most(running, rank) * 8;
    let rank = rank - ((running << 8 >> byte) & 0xFF) as u32;
    // Lane `i`: 1 if bit `i` of the byte is set, then the running count.
    let spread = ((mask >> byte) & 0xFF).wrapping_mul(ones) & 0x8040_2010_0804_0201;
    let bits = ((spread + !highs) & highs) >> 7;
    byte + lanes_at_most(bits.wrapping_mul(ones), rank)
}

/// §4.3's adaptive scheme: start from a small `num`, and grow it by 1.4×
/// per step, at most 16 steps, while a step is predicted to pay for
/// itself. Returns ConvexProg 4.1's solve over everything the ledger
/// holds when the search stops: every row any step drew.
///
/// The paper grows the sample "until the estimated total cost starts
/// rising", the total being what sampling spent plus the planned
/// execution. This takes the rise in expectation, before the step,
/// instead of on one noisy realisation after it. A step that draws `ΔF`
/// rows costs `ΔF · (o_r + o_e)`, and all it can change is the planned
/// execution, so it is taken only if that is predicted to fall by more.
/// The prediction starts from the current posterior: each group keeps
/// its mean, its expected positives grow with it, and its variance
/// shrinks to a Beta's after `F_a + ΔF_a` draws ([`beta_variance`]).
/// ConvexProg 4.1 is solved on the prediction and costed over the rows it
/// leaves undecided. Two kinds of step cost nothing, so the search walks
/// through them: one whose targets the ledger already meets draws
/// nothing, and while the solve finds no plan, the fallback evaluates
/// every undecided row, so a drawn row costs what executing it would.
pub(crate) fn adaptive_num_search(
    ledger: &mut Ledger<'_>,
    spec: &QuerySpec,
    corr: CorrelationModel,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> Result<Plan, PlanError> {
    let growth = 1.4;
    let max_steps = 16;
    let draw_cost = spec.cost.retrieve + spec.cost.evaluate;
    let mut num = 0.5 * spec.alpha.max(0.1);
    ledger.sample(SampleSizeRule::TwoThirdPower(num), rng, ctx);
    let mut estimated = ledger.estimated_groups();
    let mut plan = solve_estimated(&estimated, spec, corr);
    for _ in 1..max_steps {
        num *= growth;
        let rule = SampleSizeRule::TwoThirdPower(num);
        let draws = ledger.shortfalls(rule);
        let drawn: usize = draws.iter().sum();
        if drawn == 0 {
            continue;
        }
        if plan.is_ok() {
            let predicted = predicted_after(&estimated, &draws);
            let saving = execution_cost(&plan, &estimated, spec)
                - execution_cost(&solve_estimated(&predicted, spec, corr), &predicted, spec);
            if saving <= drawn as f64 * draw_cost {
                break;
            }
        }
        ledger.sample(rule, rng, ctx);
        estimated = ledger.estimated_groups();
        plan = solve_estimated(&estimated, spec, corr);
    }
    plan
}

/// The optimizer's input after `draws[g]` more rows of each group `g`,
/// in expectation: each group keeps its mean, its positives grow by the
/// mean's share of the draws, and its variance is a Beta's after all
/// its draws ([`beta_variance`]).
fn predicted_after(estimated: &[EstimatedGroup], draws: &[usize]) -> Vec<EstimatedGroup> {
    estimated
        .iter()
        .zip(draws)
        .map(|(g, &draws)| {
            let (draws, sampled) = (draws as f64, g.sampled + draws as f64);
            EstimatedGroup {
                sampled,
                sampled_positive: g.sampled_positive + draws * g.sel,
                var: beta_variance(g.sel, sampled),
                ..*g
            }
        })
        .collect()
}

/// The expected cost of executing `plan` over `groups`' undecided rows —
/// of evaluating them all, what runs when the solve found no plan.
fn execution_cost(
    plan: &Result<Plan, PlanError>,
    groups: &[EstimatedGroup],
    spec: &QuerySpec,
) -> f64 {
    let sizes: Vec<f64> = groups.iter().map(EstimatedGroup::remaining).collect();
    match plan {
        Ok(plan) => plan.expected_cost(&sizes, &spec.cost),
        Err(_) => Plan::evaluate_all(groups.len()).expected_cost(&sizes, &spec.cost),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use expred_exec::{BatchProbe, CacheStore, Executor, Sequential};
    use expred_table::{DataType, Field, Schema, Table, Value};
    use expred_udf::{CostModel, OracleUdf};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The optimizer's input from per-group `(decided, passed)` counts,
    /// built as the tally the ledger replaced built it: a Beta posterior
    /// per group, its mean and its variance.
    fn estimated_from(groups: &GroupBy, counts: &[(usize, usize)]) -> Vec<EstimatedGroup> {
        counts
            .iter()
            .enumerate()
            .map(|(g, &(total, pos))| {
                let estimate = SelectivityEstimate::from_sample(pos as u64, total as u64);
                EstimatedGroup {
                    size: groups.size(g) as f64,
                    sampled: total as f64,
                    sampled_positive: pos as f64,
                    sel: estimate.mean(),
                    var: estimate.variance(),
                }
            })
            .collect()
    }

    thread_local! {
        /// While `Some`, each [`Ledger::estimated_groups`] on this thread
        /// is checked against a re-tally of its grouping, and counted.
        static RETALLY_CHECKS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `run` with every [`Ledger::estimated_groups`] it makes on
    /// this thread checked against a re-tally, and returns how many were.
    pub(crate) fn with_retally_checks<R>(run: impl FnOnce() -> R) -> (R, usize) {
        RETALLY_CHECKS.with(|checks| checks.set(Some(0)));
        let out = run();
        let checks = RETALLY_CHECKS.with(|checks| checks.take());
        (out, checks.expect("the checks were on"))
    }

    /// When checks are on: the ledger's planes and estimates must be
    /// those of the re-tally it replaced — one word-major read of the
    /// whole grouping ([`UdfInvoker::scan_groups`]) folded per group
    /// ([`GroupBy::counts`]) — bit for bit. The read promotes nothing the
    /// query's memo lacks (with no other query in flight, the ledger's
    /// opening scan promoted every row the session held), so it changes
    /// no bill; the store counts its misses.
    pub(crate) fn check_against_the_retally(ledger: &Ledger<'_>, estimated: &[EstimatedGroup]) {
        if RETALLY_CHECKS.with(Cell::get).is_none() {
            return;
        }
        let (decided, passed) = ledger.invoker.scan_groups(ledger.groups);
        assert_eq!(decided, ledger.decided, "the decided planes differ");
        assert_eq!(passed, ledger.passed, "the passed planes differ");
        let counts: Vec<(usize, usize)> = ledger
            .groups
            .counts([&decided, &passed])
            .into_iter()
            .map(|[total, pos]| (total, pos))
            .collect();
        let bits = |groups: &[EstimatedGroup]| -> Vec<[u64; 5]> {
            groups
                .iter()
                .map(|g| [g.size, g.sampled, g.sampled_positive, g.sel, g.var].map(f64::to_bits))
                .collect()
        };
        assert_eq!(
            bits(estimated),
            bits(&estimated_from(ledger.groups, &counts)),
            "the ledger's estimates differ from the re-tally's"
        );
        RETALLY_CHECKS.with(|checks| checks.set(checks.get().map(|n| n + 1)));
    }

    /// The group-at-a-time loop the ledger's draws replaced — one
    /// executor barrier per group — kept as the oracle they must match
    /// action for action. `tallies` carries each group's `(decided,
    /// passed)` and its undecided rows across rounds as the ledger does:
    /// a group is read by a scan of its rows on the first round only, and
    /// later rounds draw among the rows it carries as undecided.
    fn sample_per_group(
        groups: &GroupBy,
        invoker: &UdfInvoker<'_>,
        rule: SampleSizeRule,
        rng: &mut Prng,
        ctx: &ExecContext<'_>,
        tallies: &mut Vec<(usize, usize, Vec<usize>)>,
    ) -> Vec<EstimatedGroup> {
        let n = groups.num_rows();
        for g in 0..groups.num_groups() {
            let target = rule.sample_size(groups.size(g), n);
            if tallies.len() == g {
                let rows: Vec<u32> = groups.rows(g).collect();
                let known = invoker.known_many(rows.iter().map(|&row| row as usize));
                let fresh = rows
                    .iter()
                    .zip(&known)
                    .filter(|(_, known)| known.is_none())
                    .map(|(&row, _)| row as usize)
                    .collect();
                let total = known.iter().flatten().count();
                let pos = known.iter().filter(|&&k| k == Some(true)).count();
                tallies.push((total, pos, fresh));
            }
            let (total, pos, fresh) = &mut tallies[g];
            if *total < target {
                let batch: Vec<usize> = rng
                    .sample_indices(fresh.len(), target - *total)
                    .into_iter()
                    .map(|idx| fresh[idx])
                    .collect();
                let answers = invoker.retrieve_and_evaluate_batch(ctx.executor, &batch);
                *total += batch.len();
                *pos += answers.iter().filter(|&&a| a).count();
                fresh.retain(|row| !batch.contains(row));
            }
        }
        let counts: Vec<(usize, usize)> = tallies.iter().map(|&(t, p, _)| (t, p)).collect();
        estimated_from(groups, &counts)
    }

    /// Counts `evaluate_batch` calls on their way to [`Sequential`].
    #[derive(Default)]
    struct CountingExecutor {
        calls: AtomicUsize,
    }

    impl Executor for CountingExecutor {
        fn evaluate_batch(&self, probe: &dyn BatchProbe, rows: &[usize]) -> Vec<bool> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Sequential.evaluate_batch(probe, rows)
        }
    }

    /// A table of `groups.len()` groups, group `g` holding `groups[g]`
    /// rows (interleaved, so groups do not align with bitmap words) whose
    /// labels come off `bits`.
    fn arbitrary_table(groups: &[usize], bits: u64) -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let mut left = groups.to_vec();
        let mut rows = Vec::new();
        while left.iter().any(|&n| n > 0) {
            for (g, n) in left.iter_mut().enumerate() {
                if *n > 0 {
                    *n -= 1;
                    let label = (bits >> (rows.len() % 64)) & 1 == 1 || rows.len() % 7 == g;
                    rows.push(vec![Value::Int(g as i64), Value::Bool(label)]);
                }
            }
        }
        Table::from_rows(schema, rows).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_rank_draw_is_list_and_index(
            // Sparse, dense and empty words; steps skip words.
            runs in prop::collection::vec((1u32..4, any::<u64>(), 0u8..4), 0..40),
            need in 0usize..300,
            seed in any::<u64>(),
        ) {
            let mut open = Vec::new();
            let mut word = 0;
            for &(step, bits, density) in &runs {
                word += step;
                let mask = match density {
                    0 => 0,
                    1 => bits & bits.rotate_left(17) & bits.rotate_left(31),
                    2 => bits,
                    _ => u64::MAX,
                };
                open.push((word, mask));
            }
            let listed: Vec<usize> = open
                .iter()
                .flat_map(|&(word, mask)| {
                    expred_table::rowset::bits(mask).map(move |bit| word as usize * 64 + bit as usize)
                })
                .collect();
            let (mut by_list, mut by_rank) = (Prng::seeded(seed), Prng::seeded(seed));
            let want: Vec<usize> = by_list
                .sample_indices(listed.len(), need)
                .into_iter()
                .map(|idx| listed[idx])
                .collect();
            // Onto rows already drawn, as a group after the first does.
            let mut got = vec![7, 3];
            let drawn = draw_by_rank(&open, need, &mut by_rank, |row| got.push(row));
            prop_assert_eq!(drawn, want.len());
            prop_assert_eq!(&got[..2], &[7, 3]);
            prop_assert_eq!(&got[2..], &want[..]);
            prop_assert_eq!(by_rank.next_u64(), by_list.next_u64(), "the RNG moved differently");
        }

        #[test]
        fn select_finds_every_rank(bits in any::<u64>(), sparse in any::<bool>()) {
            let mask = if sparse { bits & bits.rotate_left(23) } else { bits };
            for mask in [mask, mask | 1 << 63, mask | 1, u64::MAX] {
                let want: Vec<u32> = expred_table::rowset::bits(mask).collect();
                let got: Vec<u32> = (0..mask.count_ones()).map(|rank| select(mask, rank)).collect();
                prop_assert_eq!(got, want, "mask {:#x}", mask);
            }
        }

        #[test]
        fn one_batch_per_round_matches_the_per_group_loop(
            groups in prop::collection::vec(1usize..90, 1..9),
            bits in any::<u64>(),
            seed in any::<u64>(),
            earlier in prop::collection::vec(0usize..400, 0..60),
            own in prop::collection::vec(0usize..400, 0..30),
            rule in (0usize..3, 1usize..40),
        ) {
            let table = arbitrary_table(&groups, bits);
            let n = table.num_rows();
            let grouping = table.group_by("g").unwrap();
            let udf = OracleUdf::new("label");
            let rule = match rule {
                (0, k) => SampleSizeRule::Constant(k),
                (1, k) => SampleSizeRule::Fraction(k as f64 / 40.0),
                (_, k) => SampleSizeRule::TwoThirdPower(k as f64 / 4.0),
            };
            // Two rounds (the adaptive search re-samples over its own
            // earlier rounds) over a session store an earlier query left
            // rows in, after this query evaluated some rows itself. Both
            // sides read each group once and carry what they read, so the
            // store sees the same probes.
            let run = |batched: bool| {
                let store = CacheStore::new();
                let executor = CountingExecutor::default();
                let ctx = ExecContext::new(&executor).with_cache(&store);
                let before = UdfInvoker::with_context(&udf, &table, &ctx);
                for &row in &earlier {
                    before.evaluate(row % n);
                }
                let invoker = UdfInvoker::with_context(&udf, &table, &ctx);
                for &row in &own {
                    invoker.retrieve_and_evaluate(row % n);
                }
                let mut rng = Prng::seeded(seed);
                let mut rounds = Vec::new();
                let mut ledger = batched.then(|| Ledger::open(&grouping, &invoker));
                let mut tallies = Vec::new();
                for _ in 0..2 {
                    let calls = executor.calls.load(Ordering::Relaxed);
                    let sample = match &mut ledger {
                        Some(ledger) => {
                            ledger.sample(rule, &mut rng, &ctx);
                            ledger.estimated_groups()
                        }
                        None => {
                            sample_per_group(&grouping, &invoker, rule, &mut rng, &ctx, &mut tallies)
                        }
                    };
                    rounds.push((
                        format!("{sample:?}"),
                        executor.calls.load(Ordering::Relaxed) - calls,
                    ));
                }
                (rounds, invoker.counts(), store.stats(), rng.next_u64())
            };
            let (batched, batched_counts, batched_store, batched_draw) = run(true);
            let (oracle, oracle_counts, oracle_store, oracle_draw) = run(false);
            for (round, ((got, calls), (want, _))) in batched.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(got, want, "round {} sample", round);
                prop_assert!(*calls <= 1, "round {} made {} executor calls", round, calls);
            }
            prop_assert_eq!(batched_counts, oracle_counts);
            prop_assert_eq!(batched_store, oracle_store);
            prop_assert_eq!(batched_draw, oracle_draw, "the RNG moved differently");
        }
    }

    #[test]
    fn a_sampling_round_is_exactly_one_executor_call() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let executor = CountingExecutor::default();
        let ctx = ExecContext::new(&executor);
        let mut rng = Prng::seeded(11);
        let mut ledger = Ledger::open(&groups, &invoker);
        for (round, per_group) in [5, 12, 30].into_iter().enumerate() {
            ledger.sample(SampleSizeRule::Constant(per_group), &mut rng, &ctx);
            let sampled: Vec<f64> = ledger
                .estimated_groups()
                .iter()
                .map(|g| g.sampled)
                .collect();
            assert_eq!(sampled, vec![per_group as f64; 3]);
            assert_eq!(executor.calls.load(Ordering::Relaxed), round + 1);
        }
        // Nothing left to buy: no call at all.
        ledger.sample(SampleSizeRule::Constant(30), &mut rng, &ctx);
        assert_eq!(executor.calls.load(Ordering::Relaxed), 3);
    }

    /// A 3-group table: group g has 40 rows, selectivity g * 0.3 + 0.1.
    fn test_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("label", DataType::Bool),
        ]);
        let mut rows = Vec::new();
        for g in 0..3i64 {
            let sel = g as f64 * 0.3 + 0.1;
            for i in 0..40 {
                let label = (i as f64) < sel * 40.0;
                rows.push(vec![Value::Int(g), Value::Bool(label)]);
            }
        }
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn rule_sizes() {
        assert_eq!(SampleSizeRule::Fraction(0.05).sample_size(1000, 10_000), 50);
        assert_eq!(SampleSizeRule::Constant(30).sample_size(1000, 10_000), 30);
        assert_eq!(SampleSizeRule::Constant(30).sample_size(10, 10_000), 10);
        // Two-third power: num * t * n^{-1/3} = 2 * 1000 * 0.046.. ≈ 93.
        let s = SampleSizeRule::TwoThirdPower(2.0).sample_size(1000, 10_000);
        assert!((90..=96).contains(&s), "{s}");
    }

    #[test]
    fn sampling_charges_and_estimates() {
        let ctx = ExecContext::sequential();
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(5);
        let mut ledger = Ledger::open(&groups, &invoker);
        ledger.sample(SampleSizeRule::Constant(20), &mut rng, &ctx);
        let est = ledger.estimated_groups();
        assert!(est.iter().all(|g| g.sampled == 20.0));
        let counts = invoker.counts();
        assert_eq!(counts.evaluated, 60);
        assert_eq!(counts.retrieved, 60);
        // Estimates should be ordered like the true selectivities.
        assert!(est[0].sel < est[1].sel);
        assert!(est[1].sel < est[2].sel);
    }

    #[test]
    fn sampling_reuses_free_labels() {
        let ctx = ExecContext::sequential();
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        // Pre-evaluate 10 rows of group 0 (rows 0..10).
        for r in 0..10 {
            invoker.retrieve_and_evaluate(r);
        }
        let before = invoker.counts().evaluated;
        let mut rng = Prng::seeded(6);
        let mut ledger = Ledger::open(&groups, &invoker);
        ledger.sample(SampleSizeRule::Constant(10), &mut rng, &ctx);
        // Group 0's target of 10 is fully covered by reuse.
        assert_eq!(invoker.counts().evaluated, before + 20);
        assert_eq!(ledger.estimated_groups()[0].sampled, 10.0);
    }

    #[test]
    fn estimates_follow_beta_posterior() {
        let ctx = ExecContext::sequential();
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(7);
        let mut ledger = Ledger::open(&groups, &invoker);
        ledger.sample(SampleSizeRule::Fraction(1.0), &mut rng, &ctx);
        // Full sampling: estimates are posteriors over the whole group.
        for g in ledger.estimated_groups() {
            let (pos, n) = (g.sampled_positive, g.sampled);
            assert_eq!(n, 40.0);
            let want = (pos + 1.0) / (n + 2.0);
            assert!((g.sel - want).abs() < 1e-12);
        }
    }

    #[test]
    fn to_estimated_groups_shapes() {
        let ctx = ExecContext::sequential();
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(8);
        let mut ledger = Ledger::open(&groups, &invoker);
        ledger.sample(SampleSizeRule::Constant(5), &mut rng, &ctx);
        let est = ledger.estimated_groups();
        assert_eq!(est.len(), 3);
        for g in &est {
            assert_eq!(g.size, 40.0);
            assert_eq!(g.sampled, 5.0);
            assert_eq!(g.remaining(), 35.0);
        }
    }

    #[test]
    fn adaptive_search_terminates_with_finite_cost() {
        let ctx = ExecContext::sequential();
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let spec = QuerySpec::new(0.5, 0.5, 0.5, CostModel::PAPER_DEFAULT);
        let mut rng = Prng::seeded(9);
        let mut ledger = Ledger::open(&groups, &invoker);
        let plan = adaptive_num_search(
            &mut ledger,
            &spec,
            CorrelationModel::Independent,
            &mut rng,
            &ctx,
        );
        let cost = execution_cost(&plan, &ledger.estimated_groups(), &spec);
        assert!(cost.is_finite());
        assert!(plan.is_ok());
    }

    #[test]
    fn a_warm_ledger_that_meets_every_target_draws_nothing() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        for row in 0..table.num_rows() {
            invoker.retrieve_and_evaluate(row);
        }
        let before = invoker.counts();
        let executor = CountingExecutor::default();
        let ctx = ExecContext::new(&executor);
        let mut ledger = Ledger::open(&groups, &invoker);
        let spec = QuerySpec::paper_default();
        for corr in [CorrelationModel::Independent, CorrelationModel::Unknown] {
            let plan = adaptive_num_search(&mut ledger, &spec, corr, &mut Prng::seeded(3), &ctx);
            assert!(plan.is_ok(), "{corr:?}");
        }
        assert_eq!(invoker.counts(), before);
        assert_eq!(executor.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn the_prediction_keeps_the_mean_and_shrinks_the_variance_as_draws_would() {
        // A group of `p` positives in `f` draws, then `d = k (f + 2)` more:
        // at `(p + 1)(k + 1) − 1` positives among `f + d` the posterior
        // mean is the same, so the predicted variance must be that
        // posterior's.
        for (p, f) in [(0u64, 0u64), (4, 10), (7, 7), (0, 31), (19, 40)] {
            for k in [1, 2, 5] {
                let now = SelectivityEstimate::from_sample(p, f);
                let group = EstimatedGroup {
                    size: 1_000.0,
                    sampled: f as f64,
                    sampled_positive: p as f64,
                    sel: now.mean(),
                    var: now.variance(),
                };
                let d = k * (f + 2);
                let [predicted] = predicted_after(&[group], &[d as usize])[..] else {
                    unreachable!("one group in, one out")
                };
                let then = SelectivityEstimate::from_sample((p + 1) * (k + 1) - 1, f + d);
                let what = format!("{p} of {f}, {d} more");
                assert!((then.mean() - now.mean()).abs() < 1e-15, "{what}");
                assert_eq!(predicted.sel, now.mean(), "{what}");
                assert!(
                    (predicted.var - then.variance()).abs() <= 1e-14 * then.variance(),
                    "{what}"
                );
                assert_eq!(predicted.sampled, (f + d) as f64, "{what}");
                assert_eq!(predicted.size, 1_000.0, "{what}");
                let positives = p as f64 + d as f64 * now.mean();
                assert!(
                    (predicted.sampled_positive - positives).abs() < 1e-9,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn the_search_ends_within_the_cap() {
        let table = test_table();
        let udf = OracleUdf::new("label");
        // A loose query stops on a predicted rise. Strict ones find no
        // plan until every row is drawn, so every step is free: they draw
        // the whole table in fewer steps than the cap, walk through the
        // steps left, which draw nothing, and return.
        for (bound, corr, drew_all) in [
            (0.5, CorrelationModel::Independent, false),
            (0.95, CorrelationModel::Independent, true),
            (0.95, CorrelationModel::Unknown, true),
        ] {
            let invoker = UdfInvoker::new(&udf, &table);
            let groups = table.group_by("g").unwrap();
            let executor = CountingExecutor::default();
            let ctx = ExecContext::new(&executor);
            let spec = QuerySpec::new(bound, bound, bound, CostModel::PAPER_DEFAULT);
            let mut ledger = Ledger::open(&groups, &invoker);
            let plan = adaptive_num_search(&mut ledger, &spec, corr, &mut Prng::seeded(4), &ctx);
            let draws = executor.calls.load(Ordering::Relaxed);
            let what = format!("{bound} {corr:?}: {draws} draws");
            assert!(plan.is_ok(), "{what}");
            assert!((1..16).contains(&draws), "{what}");
            let evaluated = invoker.counts().evaluated as usize;
            assert_eq!(
                evaluated == table.num_rows(),
                drew_all,
                "{what}, {evaluated} rows"
            );
        }
    }
}
