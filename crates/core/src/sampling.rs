//! Joint estimation & exploitation: the sampling side (paper §4).
//!
//! * [`SampleSizeRule`] — how many tuples to sample per group: a fixed
//!   fraction (Experiment 1 uses 5%), a constant per group (§6.3's
//!   `Constant(c)` scheme), or the paper's rule of thumb
//!   `F_a = num · t_a · n^{-1/3}` (§4.3, the `Two-Third-Power` scheme).
//! * [`sample_groups`] — draws and evaluates the sample through the
//!   audited invoker (sampling cost is *included* in the algorithm's cost,
//!   §6.2), reusing any tuples that were already evaluated (e.g. the 1%
//!   used for predictor selection — "the 1% labelled tuples can be re-used
//!   for both selectivity estimation and as part of the output", §4.4).
//!   What the groups already know is read in one word-major pass over
//!   the whole grouping ([`UdfInvoker::scan_groups`]): each 64-row word
//!   the groups touch is loaded and settled once, into a plane of the
//!   decided rows and one of those that passed. The tally `(evaluated,
//!   positives)` is two ANDs and two popcounts per `(word, mask)` run,
//!   folded per group ([`GroupBy::counts`], with the POPCNT instruction
//!   where the CPU has it).
//!   The groups short of their targets are then read again, all at once:
//!   one word-major read of the union of their runs
//!   ([`UdfInvoker::scan_plane`]), which makes the store probes a rescan
//!   of each short group made. Each group, in group order, draws its
//!   shortfall by rank among its undecided bits, `mask & !decided` over
//!   its runs: `sample_indices` picks ranks, and prefix popcounts map
//!   each rank to its row — the rows, order and draws of indexing a list
//!   of the undecided rows, which is never built. The draws land in one
//!   plane, evaluated as one batch ([`UdfInvoker::evaluate_plane`]), and
//!   the groups' drawn positives are again a popcount per run, counted
//!   for every group in one pass.
//! * [`Sampling`] — how Intel-Sample sizes its first sample: a
//!   [`SampleSizeRule`], or [`Sampling::Search`], §4.3's adaptive scheme
//!   (`adaptive_num_search`): grow `num`, re-plan, and stop when the
//!   estimated total cost starts rising.

use crate::optimize::{solve_estimated, CorrelationModel, EstimatedGroup, PlanError};
use crate::plan::Plan;
use crate::query::QuerySpec;
use expred_exec::ExecContext;
use expred_stats::estimator::SelectivityEstimate;
use expred_stats::rng::Prng;
use expred_table::{GroupBy, RowSet};
use expred_udf::UdfInvoker;

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
    /// rule, re-planning each step, until the estimated total cost
    /// rises; the plan it stopped at is the first round's.
    Search,
}

/// The outcome of sampling one grouping.
#[derive(Debug, Clone)]
pub struct GroupSample {
    /// Per-group selectivity estimates (Beta posterior over the evaluated
    /// tuples, §4.1).
    pub estimates: Vec<SelectivityEstimate>,
    /// Per-group count of evaluated tuples (`F_a`), including re-used ones.
    pub evaluated: Vec<u64>,
    /// Per-group count of evaluated tuples that satisfied the predicate
    /// (`F⁺_a`).
    pub positives: Vec<u64>,
}

impl GroupSample {
    /// Converts the sample into the optimizer's input, attaching group
    /// sizes from the grouping.
    pub fn to_estimated_groups(&self, groups: &GroupBy) -> Vec<EstimatedGroup> {
        (0..groups.num_groups())
            .map(|g| EstimatedGroup {
                size: groups.size(g) as f64,
                sampled: self.evaluated[g] as f64,
                sampled_positive: self.positives[g] as f64,
                sel: self.estimates[g].mean(),
                var: self.estimates[g].variance(),
            })
            .collect()
    }
}

/// Samples every group per `rule`, evaluating through `invoker` under an
/// execution context.
///
/// Already-evaluated rows count toward the target for free — sampled
/// earlier in this query (predictor selection, earlier rounds) *or*
/// evaluated by a previous query sharing the session cache; only the
/// shortfall incurs retrieval + evaluation cost. Estimates are Beta
/// posteriors over *all* evaluated rows of the group.
///
/// Row selection is drawn on the calling thread and every batched row is
/// fresh and distinct, so estimates, counts, and charged costs are
/// byte-identical across backends for a fixed seed.
///
/// Every group's shortfall is drawn first (group order, so the RNG is
/// consumed exactly as a group-at-a-time loop would) and the union is
/// evaluated in **one** executor call per sampling round: groups
/// partition the rows, so no draw can depend on another group's answers,
/// and a wide executor gets one deep batch instead of a barrier per
/// group — most of which carry a few dozen rows.
pub fn sample_groups(
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    rule: SampleSizeRule,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> GroupSample {
    let n = groups.num_rows();
    // Free information first: rows already evaluated, read for every
    // group in one word-major pass and tallied per run.
    let (decided, passed) = invoker.scan_groups(groups);
    // Per group: (evaluated, positives) among already-known rows, and
    // its shortfall — then how many drawn rows it contributed to `batch`.
    let mut tallies: Vec<(usize, usize, usize)> = Vec::with_capacity(groups.num_groups());
    // The rows of every group short of its target, if any is.
    let mut short: Option<RowSet> = None;
    for (g, [total, pos]) in groups.counts([&decided, &passed]).into_iter().enumerate() {
        let target = rule.sample_size(groups.size(g), n);
        if total < target {
            let short = short.get_or_insert_with(|| RowSet::new(invoker.table().num_rows()));
            for (word, mask) in groups.runs(g) {
                short.insert_word(word as usize, mask);
            }
        }
        tallies.push((total, pos, target.saturating_sub(total)));
    }
    // Of the rows drawn, those that passed.
    let mut passed = None;
    if let Some(short) = short {
        // Pay for the shortfalls with fresh random rows. The short groups
        // are read again rather than remembered from the tally: a row
        // another query of the session landed in between is neither
        // drawn fresh nor counted (and the store sees the probes a
        // per-group rescan made). Each group then draws by rank among
        // its undecided rows, in group order, into one plane.
        let (decided, _) = invoker.scan_plane(&short);
        let mut batch = RowSet::new(invoker.table().num_rows());
        let mut open = Vec::new();
        for (g, tally) in tallies.iter_mut().enumerate() {
            if tally.2 == 0 {
                continue;
            }
            open.clear();
            open.extend(
                groups
                    .runs(g)
                    .map(|(word, mask)| (word, mask & !decided.word(word as usize)))
                    .filter(|&(_, mask)| mask != 0),
            );
            tally.2 = draw_by_rank(&open, tally.2, rng, |row| batch.insert(row));
        }
        invoker.charge_retrievals(batch.len() as u64);
        passed = Some(invoker.evaluate_plane(ctx.executor, &batch));
    }
    let mut sample = GroupSample {
        estimates: Vec::with_capacity(tallies.len()),
        evaluated: Vec::with_capacity(tallies.len()),
        positives: Vec::with_capacity(tallies.len()),
    };
    // Each group's drawn positives: the drawn rows that passed are all
    // some group's draws, so a group without draws counts none.
    let drawn_pos = passed.map(|passed| groups.counts([&passed]));
    for (g, (known, known_pos, drawn)) in tallies.into_iter().enumerate() {
        let drawn_pos = drawn_pos.as_ref().map_or(0, |counts| counts[g][0]);
        let (pos, total) = ((known_pos + drawn_pos) as u64, (known + drawn) as u64);
        sample
            .estimates
            .push(SelectivityEstimate::from_sample(pos, total));
        sample.evaluated.push(total);
        sample.positives.push(pos);
    }
    sample
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

/// Result of the adaptive `num` search (§4.3).
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveOutcome {
    /// Estimated total cost (sampling already spent + planned remainder)
    /// at the stopping point.
    pub(crate) estimated_cost: f64,
    /// ConvexProg 4.1's solve over the sample the search stopped at —
    /// the plan the search costed, so callers need not solve the same
    /// sample again.
    pub(crate) plan: Result<Plan, PlanError>,
}

/// §4.3's adaptive scheme: start from a small `num`, keep enlarging the
/// sample and re-solving ConvexProg 4.1; stop when the estimated total
/// cost (sampling spent so far + planned execution) rises for two
/// consecutive steps, returning the best state seen.
pub(crate) fn adaptive_num_search(
    groups: &GroupBy,
    invoker: &UdfInvoker<'_>,
    spec: &QuerySpec,
    corr: CorrelationModel,
    rng: &mut Prng,
    ctx: &ExecContext<'_>,
) -> AdaptiveOutcome {
    let growth = 1.4;
    let max_steps = 16;
    // One step: sample up to `num`'s rule, solve, and cost the result.
    let mut step = |num: f64| {
        let rule = SampleSizeRule::TwoThirdPower(num);
        let est_groups = sample_groups(groups, invoker, rule, rng, ctx).to_estimated_groups(groups);
        let spent = invoker.cost(&spec.cost);
        let plan = solve_estimated(&est_groups, spec, corr);
        let planned = match &plan {
            Ok(plan) => {
                let sizes: Vec<f64> = est_groups.iter().map(|g| g.remaining()).collect();
                plan.expected_cost(&sizes, &spec.cost)
            }
            Err(_) => f64::INFINITY,
        };
        AdaptiveOutcome {
            estimated_cost: spent + planned,
            plan,
        }
    };
    let mut num = 0.5 * spec.alpha.max(0.1);
    let mut best = step(num);
    let mut rises = 0;
    for _ in 1..max_steps {
        num *= growth;
        let next = step(num);
        if next.estimated_cost < best.estimated_cost {
            best = next;
            rises = 0;
        } else {
            rises += 1;
            if rises >= 2 {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use expred_exec::{BatchProbe, CacheStore, Executor, Sequential};
    use expred_table::{DataType, Field, Schema, Table, Value};
    use expred_udf::{CostModel, OracleUdf};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The group-at-a-time loop [`sample_groups`] replaced — one
    /// executor barrier per group — kept as the oracle the batched
    /// version must match action for action.
    fn sample_groups_per_group(
        groups: &GroupBy,
        invoker: &UdfInvoker<'_>,
        rule: SampleSizeRule,
        rng: &mut Prng,
        ctx: &ExecContext<'_>,
    ) -> GroupSample {
        let n = groups.num_rows();
        let mut estimates = Vec::with_capacity(groups.num_groups());
        let mut evaluated = Vec::with_capacity(groups.num_groups());
        let mut positives = Vec::with_capacity(groups.num_groups());
        for g in 0..groups.num_groups() {
            let rows: Vec<u32> = groups.rows(g).collect();
            let target = rule.sample_size(groups.size(g), n);
            let scan = || invoker.known_many(rows.iter().map(|&row| row as usize));
            let known = scan();
            let mut total = known.iter().flatten().count();
            let mut pos = known.iter().filter(|&&k| k == Some(true)).count();
            if total < target {
                let fresh: Vec<usize> = rows
                    .iter()
                    .zip(scan())
                    .filter(|(_, known)| known.is_none())
                    .map(|(&row, _)| row as usize)
                    .collect();
                let batch: Vec<usize> = rng
                    .sample_indices(fresh.len(), target - total)
                    .into_iter()
                    .map(|idx| fresh[idx])
                    .collect();
                let answers = invoker.retrieve_and_evaluate_batch(ctx.executor, &batch);
                total += batch.len();
                pos += answers.iter().filter(|&&a| a).count();
            }
            let (pos, total) = (pos as u64, total as u64);
            estimates.push(SelectivityEstimate::from_sample(pos, total));
            evaluated.push(total);
            positives.push(pos);
        }
        GroupSample {
            estimates,
            evaluated,
            positives,
        }
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
            // rows in, after this query evaluated some rows itself.
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
                for _ in 0..2 {
                    let calls = executor.calls.load(Ordering::Relaxed);
                    let sample = if batched {
                        sample_groups(&grouping, &invoker, rule, &mut rng, &ctx)
                    } else {
                        sample_groups_per_group(&grouping, &invoker, rule, &mut rng, &ctx)
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
        for (round, per_group) in [5, 12, 30].into_iter().enumerate() {
            let rule = SampleSizeRule::Constant(per_group);
            let sample = sample_groups(&groups, &invoker, rule, &mut rng, &ctx);
            assert_eq!(sample.evaluated, vec![per_group as u64; 3]);
            assert_eq!(executor.calls.load(Ordering::Relaxed), round + 1);
        }
        // Nothing left to buy: no call at all.
        sample_groups(
            &groups,
            &invoker,
            SampleSizeRule::Constant(30),
            &mut rng,
            &ctx,
        );
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
        let sample = sample_groups(
            &groups,
            &invoker,
            SampleSizeRule::Constant(20),
            &mut rng,
            &ctx,
        );
        assert_eq!(sample.evaluated, vec![20, 20, 20]);
        let counts = invoker.counts();
        assert_eq!(counts.evaluated, 60);
        assert_eq!(counts.retrieved, 60);
        // Estimates should be ordered like the true selectivities.
        assert!(sample.estimates[0].mean() < sample.estimates[1].mean());
        assert!(sample.estimates[1].mean() < sample.estimates[2].mean());
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
        let sample = sample_groups(
            &groups,
            &invoker,
            SampleSizeRule::Constant(10),
            &mut rng,
            &ctx,
        );
        // Group 0's target of 10 is fully covered by reuse.
        assert_eq!(invoker.counts().evaluated, before + 20);
        assert_eq!(sample.evaluated[0], 10);
    }

    #[test]
    fn estimates_follow_beta_posterior() {
        let ctx = ExecContext::sequential();
        let table = test_table();
        let udf = OracleUdf::new("label");
        let invoker = UdfInvoker::new(&udf, &table);
        let groups = table.group_by("g").unwrap();
        let mut rng = Prng::seeded(7);
        let sample = sample_groups(
            &groups,
            &invoker,
            SampleSizeRule::Fraction(1.0),
            &mut rng,
            &ctx,
        );
        // Full sampling: estimates are posteriors over the whole group.
        for g in 0..3 {
            let pos = sample.positives[g];
            let n = sample.evaluated[g];
            assert_eq!(n, 40);
            let want = (pos as f64 + 1.0) / (n as f64 + 2.0);
            assert!((sample.estimates[g].mean() - want).abs() < 1e-12);
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
        let sample = sample_groups(
            &groups,
            &invoker,
            SampleSizeRule::Constant(5),
            &mut rng,
            &ctx,
        );
        let est = sample.to_estimated_groups(&groups);
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
        let outcome = adaptive_num_search(
            &groups,
            &invoker,
            &spec,
            CorrelationModel::Independent,
            &mut rng,
            &ctx,
        );
        assert!(outcome.estimated_cost.is_finite());
        assert!(outcome.plan.is_ok());
    }
}
