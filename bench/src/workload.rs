//! The four workloads: what each one serves, commits, reads and queries,
//! and the seeded generators that turn a workload into concrete inputs
//! (program files plus an op script with the reference's expected answer
//! on every op).
//!
//! Every workload runs the same phases, so every metric is measured on
//! every workload; they differ in the program, the data and the share of
//! the run each phase gets — and so in which layer's cost dominates.

use crate::reference::{TcRef, UpDownRef};

/// Name of the recursive predicate, and so of the served view.
pub const VIEW: &str = "p";

/// splitmix64: a small seeded generator, so that the same `--seed` gives
/// byte-identical inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input sizes: full, or `--smoke` (sizes ÷ 20; ÷ 4 where the cost is
/// quadratic in the size).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    div: usize,
    div_sqrt: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        div: 1,
        div_sqrt: 1,
    };
    pub const SMOKE: Scale = Scale {
        div: 20,
        div_sqrt: 4,
    };

    fn linear(self, full: usize) -> usize {
        (full / self.div).max(2)
    }

    fn root(self, full: usize) -> usize {
        (full / self.div_sqrt).max(2)
    }
}

/// What `linrec serve` materializes and how a commit changes it.
#[derive(Clone, Copy, Debug)]
pub enum Served {
    /// `p(x,y) :- p(x,z), edge(z,y).` over a chain, `p` seeded by the
    /// edges; a batch adds fresh disjoint edges (view grows by one tuple
    /// per edge).
    TcChain { edges: usize, batch_edges: usize },
    /// The paper's commuting pair over `components` child→parent `up`
    /// chains of `depth` nodes and a strongly connected random `down`
    /// digraph; the view starts from `initial_seeds` seeds `p(root, d)` and
    /// a batch seeds `batch_seeds` more into unused `up` components.
    UpDown {
        components: usize,
        depth: usize,
        down_nodes: usize,
        down_edges: usize,
        initial_seeds: usize,
        batch_seeds: usize,
    },
}

/// The program `linrec run` evaluates from scratch; one plan shape each.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    /// TC over a `side × side` grid: the planner picks `DenseClosure`.
    Dense { side: usize },
    /// TC over disjoint chains whose domain is over the dense budget:
    /// semi-naive `Direct`, one round per chain node, no duplicates.
    Sparse { chains: usize, len: usize },
    /// The up/down pair with many seeds: `Decomposed`.
    Decomposed { seeds: usize },
    /// The same with a selection on column 1: `Separable`.
    Separable { seeds: usize },
}

/// One workload: a deployment both users go through.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// The name `BENCHMARK.json` lists it under, with the reason for it.
    pub name: &'static str,
    pub served: Served,
    pub query: Query,
    /// `--checkpoint-batches` for the server at full scale.
    pub checkpoint_batches: usize,
    /// Batches left in the WAL whenever the server is killed: every round
    /// of the write loop stops at this remainder, so recovery replays the
    /// same tail on every run.
    pub wal_tail: usize,
    /// The write loop is cut into this many rounds, each ended by a kill.
    pub rounds: usize,
    /// Write-loop iterations per second of `--seconds`. The count is fixed
    /// by the run length, not by how fast the server is, so the state the
    /// later phases see does not depend on the code under test.
    pub iterations_per_second: f64,
    /// Restarts on a copy of the crashed directory, spread evenly over the
    /// rounds; each restarted server serves a share of the read loop.
    pub recover_cycles: usize,
    /// `linrec run` executions, spread evenly between the restarts.
    pub query_runs: usize,
}

const UPDOWN_FULL: Served = Served::UpDown {
    components: 800,
    depth: 8,
    down_nodes: 250,
    down_edges: 20_000,
    initial_seeds: 1,
    batch_seeds: 2,
};

/// The four workloads. Sized so that on the seed commit the write loop,
/// the recover cycles and the query runs take about 60 %, 10 % and 20 % of
/// `--seconds` on the two write workloads, and the post-recovery read
/// loop fills the rest.
pub const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "tc_small_delta",
        served: Served::TcChain {
            edges: 1000,
            batch_edges: 10,
        },
        query: Query::Dense { side: 56 },
        checkpoint_batches: 5,
        wal_tail: 2,
        rounds: 4,
        iterations_per_second: 4.4,
        recover_cycles: 12,
        query_runs: 10,
    },
    Scenario {
        name: "updown_deep_delta",
        served: UPDOWN_FULL,
        query: Query::Decomposed { seeds: 60 },
        checkpoint_batches: 16,
        wal_tail: 8,
        rounds: 4,
        iterations_per_second: 4.0,
        recover_cycles: 12,
        query_runs: 10,
    },
    Scenario {
        name: "recover_read",
        served: Served::TcChain {
            edges: 1000,
            batch_edges: 10,
        },
        query: Query::Sparse {
            chains: 300,
            len: 80,
        },
        checkpoint_batches: 16,
        wal_tail: 8,
        rounds: 4,
        iterations_per_second: 1.5,
        recover_cycles: 12,
        query_runs: 8,
    },
    Scenario {
        name: "query_scratch",
        served: Served::UpDown {
            components: 800,
            depth: 8,
            down_nodes: 100,
            down_edges: 1000,
            initial_seeds: 300,
            batch_seeds: 2,
        },
        query: Query::Separable { seeds: 240 },
        checkpoint_batches: 16,
        wal_tail: 8,
        rounds: 4,
        iterations_per_second: 1.0,
        recover_cycles: 12,
        query_runs: 24,
    },
];

/// Look a workload up by name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// `insert` lines of one batch and the view growth the reference expects.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub lines: Vec<String>,
    pub grown: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Ask {
    pub line: String,
    pub expect: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub line: String,
    pub rows: usize,
}

/// One write-loop iteration: commit a batch, then read it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Iteration {
    pub batch: Batch,
    pub ask: Ask,
    pub select: Select,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Read {
    Ask(Ask),
    Select(Select),
}

/// The `linrec run` invocation and the `N tuples` it must print.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInput {
    pub program: String,
    /// `pos=value` selection arguments.
    pub args: Vec<String>,
    pub tuples: u64,
}

/// One round of the run: a chunk of the write loop, then the kill.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    pub iterations: Vec<Iteration>,
    /// `count p` once this round's iterations are committed: what a
    /// server restarted after the kill must answer.
    pub count: u64,
    /// Reads against the state after this round, cycled by the read
    /// loop. The first asks name one tuple of each batch committed so
    /// far, in turn, so a lost batch is seen.
    pub reads: Vec<Read>,
}

/// Everything one run feeds the program, with the reference's answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Program file `linrec serve` starts on.
    pub program: String,
    /// `count p` of a server started on that file.
    pub initial_count: u64,
    pub rounds: Vec<Round>,
    pub query: QueryInput,
}

impl Inputs {
    /// The whole op script as text: what "same seed, same inputs" means.
    #[cfg(test)]
    pub fn script(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.program.clone();
        for round in &self.rounds {
            for it in &round.iterations {
                for line in &it.batch.lines {
                    let _ = writeln!(out, "{line}");
                }
                let _ = writeln!(out, "commit # +{}", it.batch.grown);
                let _ = writeln!(out, "{} # {}", it.ask.line, it.ask.expect);
                let _ = writeln!(out, "{} # {} rows", it.select.line, it.select.rows);
            }
            let _ = writeln!(out, "kill; count {VIEW} # {}", round.count);
            for read in &round.reads {
                match read {
                    Read::Ask(a) => {
                        let _ = writeln!(out, "{} # {}", a.line, a.expect);
                    }
                    Read::Select(s) => {
                        let _ = writeln!(out, "{} # {} rows", s.line, s.rows);
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "run {} # {} tuples",
            self.query.args.join(" "),
            self.query.tuples
        );
        out.push_str(&self.query.program);
        out
    }
}

impl Scenario {
    /// `--checkpoint-batches` for the server at `scale`.
    pub fn checkpoint_every(&self, scale: Scale) -> usize {
        scale.root(self.checkpoint_batches)
    }

    fn tail(&self, scale: Scale) -> usize {
        (self.wal_tail / scale.div_sqrt).max(1)
    }

    /// Write-loop iterations per round for a run of `seconds`. The total is
    /// proportional to the run length (at least two checkpoints' worth).
    /// A restarted server folds the WAL tail it replayed into a fresh
    /// checkpoint, so every round is some whole checkpoint periods plus
    /// `wal_tail` batches: each kill leaves the same tail behind.
    pub fn chunks(&self, seconds: f64, scale: Scale) -> Vec<usize> {
        let (every, tail) = (self.checkpoint_every(scale), self.tail(scale));
        let wanted = (seconds * self.iterations_per_second).ceil() as usize;
        // As many rounds as have a whole period each, periods dealt evenly.
        let (rounds, periods) = (1..=self.rounds)
            .rev()
            .map(|rounds| {
                let periods = wanted.saturating_sub(tail * rounds).div_ceil(every);
                (rounds, periods.max(2))
            })
            .find(|(rounds, periods)| periods >= rounds)
            .expect("one round always has its two periods");
        (0..rounds)
            .map(|r| every * (periods * (r + 1) / rounds - periods * r / rounds) + tail)
            .collect()
    }

    /// Generate the inputs for `seed` at `scale`; `chunks` gives the
    /// write-loop iterations of each round.
    pub fn generate(&self, seed: u64, scale: Scale, chunks: &[usize]) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed ^ 0x6c69_6e72_6563);
        let query = generate_query(self.query, scale, &mut rng);
        match self.served {
            Served::TcChain { edges, batch_edges } => Ok(generate_tc(
                scale.linear(edges),
                batch_edges,
                chunks,
                query,
                &mut rng,
            )),
            Served::UpDown { .. } => {
                generate_updown_service(scaled_updown(self.served, scale), chunks, query, &mut rng)
            }
        }
    }
}

const RULE_TC: &str = "p(x,y) :- p(x,z), edge(z,y).\n";
const RULES_UPDOWN: &str = "p(x,y) :- p(x,z), down(z,y).\np(x,y) :- p(w,y), up(x,w).\n";
/// Large enough that `select` never truncates.
const LIMIT: usize = 100_000_000;

fn tc_program(edges: &[(i64, i64)], rng: &mut Rng) -> String {
    let mut facts: Vec<String> = edges
        .iter()
        .flat_map(|(a, b)| [format!("edge({a},{b})."), format!("p({a},{b}).")])
        .collect();
    rng.shuffle(&mut facts);
    let mut text = String::from(RULE_TC);
    for fact in facts {
        text.push_str(&fact);
        text.push('\n');
    }
    text
}

fn generate_tc(
    chain: usize,
    batch_edges: usize,
    chunks: &[usize],
    query: QueryInput,
    rng: &mut Rng,
) -> Inputs {
    let chain = chain as i64;
    let edges: Vec<(i64, i64)> = (0..chain).map(|i| (i, i + 1)).collect();
    let program = tc_program(&edges, rng);
    let mut reference = TcRef::from_edges(&edges);
    let initial_count = reference.count();
    // Fresh nodes never seen on the chain; the offset varies with the seed.
    let mut fresh = 1_000_000 + 2 * rng.below(100_000) as i64;
    // One tuple of every committed batch.
    let mut committed: Vec<(i64, i64)> = Vec::new();
    let miss = |rng: &mut Rng, reference: &TcRef| {
        let x = rng.below(chain as usize) as i64;
        let y = x + 1 + rng.below((chain - x) as usize) as i64;
        Ask {
            line: format!("ask {VIEW} {y} {x}"),
            expect: reference.contains(y, x),
        }
    };
    let select = |rng: &mut Rng, reference: &TcRef| {
        let a = chain / 2 + rng.below((chain / 2).max(1) as usize) as i64;
        Select {
            line: format!("select {VIEW} 0={a} limit {LIMIT}"),
            rows: reference.reach(a).len(),
        }
    };
    let mut rounds = Vec::with_capacity(chunks.len());
    for &chunk in chunks {
        let mut iterations = Vec::with_capacity(chunk);
        for _ in 0..chunk {
            let mut lines = Vec::with_capacity(2 * batch_edges);
            let mut grown = 0;
            let mut batch = Vec::with_capacity(batch_edges);
            for _ in 0..batch_edges {
                let (a, b) = (fresh, fresh + 1);
                fresh += 2;
                lines.push(format!("insert edge {a} {b}"));
                lines.push(format!("insert {VIEW} {a} {b}"));
                grown += reference.insert_edge(a, b);
                batch.push((a, b));
            }
            // Alternate a known hit (one of the tuples just written: the
            // commit must be visible to the session that made it) and a
            // known miss (the chain backwards).
            let ask = if committed.len().is_multiple_of(2) {
                let (a, b) = batch[rng.below(batch.len())];
                Ask {
                    line: format!("ask {VIEW} {a} {b}"),
                    expect: reference.contains(a, b),
                }
            } else {
                miss(rng, &reference)
            };
            committed.push(batch[rng.below(batch.len())]);
            iterations.push(Iteration {
                batch: Batch { lines, grown },
                ask,
                select: select(rng, &reference),
            });
        }
        let mut reads = Vec::with_capacity(3 * committed.len());
        for &(a, b) in &committed {
            reads.push(Read::Ask(Ask {
                line: format!("ask {VIEW} {a} {b}"),
                expect: reference.contains(a, b),
            }));
            reads.push(Read::Ask(miss(rng, &reference)));
            reads.push(Read::Select(select(rng, &reference)));
        }
        rounds.push(Round {
            iterations,
            count: reference.count(),
            reads,
        });
    }
    Inputs {
        program,
        initial_count,
        rounds,
        query,
    }
}

/// Concrete sizes of an up/down data set.
#[derive(Clone, Copy)]
struct UpDownSizes {
    components: usize,
    depth: usize,
    down_nodes: usize,
    down_edges: usize,
    initial_seeds: usize,
    batch_seeds: usize,
}

fn scaled_updown(served: Served, scale: Scale) -> UpDownSizes {
    let Served::UpDown {
        components,
        depth,
        down_nodes,
        down_edges,
        initial_seeds,
        batch_seeds,
    } = served
    else {
        unreachable!("scaled_updown is only called for up/down workloads");
    };
    let down_nodes = scale.root(down_nodes);
    UpDownSizes {
        // `up` stays at full width at every scale: it only bounds how many
        // batches a run may commit, and costs nothing until seeded.
        components,
        depth,
        down_nodes,
        down_edges: scale
            .linear(down_edges)
            .clamp(down_nodes, down_nodes * (down_nodes - 1)),
        initial_seeds: (initial_seeds / scale.div).max(1),
        batch_seeds,
    }
}

/// The `up` forest and `down` digraph as fact lists, plus labels.
struct UpDownData {
    sizes: UpDownSizes,
    up: Vec<(i64, i64)>,
    down: Vec<(i64, i64)>,
}

impl UpDownData {
    fn new(sizes: UpDownSizes, rng: &mut Rng) -> UpDownData {
        let mut up = Vec::new();
        for c in 0..sizes.components {
            for level in 1..sizes.depth {
                up.push((
                    UpDownData::node(sizes, c, level),
                    UpDownData::node(sizes, c, level - 1),
                ));
            }
        }
        // A Hamiltonian cycle makes `down` strongly connected; random
        // extra edges bring the duplicate derivations.
        let n = sizes.down_nodes;
        let mut present = vec![false; n * n];
        let mut down = Vec::with_capacity(sizes.down_edges);
        for i in 0..n {
            present[i * n + (i + 1) % n] = true;
            down.push((i as i64, ((i + 1) % n) as i64));
        }
        while down.len() < sizes.down_edges {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b && !present[a * n + b] {
                present[a * n + b] = true;
                down.push((a as i64, b as i64));
            }
        }
        UpDownData { sizes, up, down }
    }

    /// Label of the node `level` steps below the root of component `c`.
    fn node(sizes: UpDownSizes, c: usize, level: usize) -> i64 {
        (1000 + c * sizes.depth + level) as i64
    }

    fn root(&self, c: usize) -> i64 {
        UpDownData::node(self.sizes, c, 0)
    }

    fn any_node(&self, c: usize, rng: &mut Rng) -> i64 {
        UpDownData::node(self.sizes, c, rng.below(self.sizes.depth))
    }

    fn program(&self, seeds: &[(i64, i64)], rng: &mut Rng) -> String {
        let mut facts: Vec<String> = self
            .up
            .iter()
            .map(|(x, w)| format!("up({x},{w})."))
            .chain(self.down.iter().map(|(z, y)| format!("down({z},{y}).")))
            .chain(seeds.iter().map(|(a, b)| format!("{VIEW}({a},{b}).")))
            .collect();
        rng.shuffle(&mut facts);
        let mut text = String::from(RULES_UPDOWN);
        for fact in facts {
            text.push_str(&fact);
            text.push('\n');
        }
        text
    }
}

fn generate_updown_service(
    sizes: UpDownSizes,
    chunks: &[usize],
    query: QueryInput,
    rng: &mut Rng,
) -> Result<Inputs, String> {
    // The first components hold the initial seeds and the last one is
    // never seeded (the known miss); every batch takes `batch_seeds`
    // unused ones.
    let iterations: usize = chunks.iter().sum();
    let needed = sizes.initial_seeds + iterations * sizes.batch_seeds + 1;
    if needed > sizes.components {
        return Err(format!(
            "{iterations} iterations need {needed} up components, the workload has {}; \
             use a shorter --seconds",
            sizes.components
        ));
    }
    let data = UpDownData::new(sizes, rng);
    let initial: Vec<(i64, i64)> = (0..sizes.initial_seeds)
        .map(|c| (data.root(c), rng.below(sizes.down_nodes) as i64))
        .collect();
    let program = data.program(&initial, rng);
    let mut reference = UpDownRef::new(&data.up, &data.down);
    for &(a, b) in &initial {
        reference.insert_seed(a, b);
    }
    let initial_count = reference.count();
    let unused = sizes.components - 1;
    // An `ask` on some node of component `c` and some `down` node: a hit
    // when `c` is seeded (`down` is strongly connected), else a miss.
    let ask = |c: usize, rng: &mut Rng, reference: &UpDownRef| {
        let (x, y) = (data.any_node(c, rng), rng.below(sizes.down_nodes) as i64);
        Ask {
            line: format!("ask {VIEW} {x} {y}"),
            expect: reference.contains(x, y),
        }
    };
    let select = |c: usize, rng: &mut Rng, reference: &UpDownRef| {
        let x = data.any_node(c, rng);
        Select {
            line: format!("select {VIEW} 0={x} limit {LIMIT}"),
            rows: reference.rows_from(x),
        }
    };
    let mut rounds = Vec::with_capacity(chunks.len());
    // Components `0..next` are seeded.
    let mut next = sizes.initial_seeds;
    for &chunk in chunks {
        let mut iterations = Vec::with_capacity(chunk);
        for i in 0..chunk {
            let mut lines = Vec::with_capacity(sizes.batch_seeds);
            let mut grown = 0;
            for _ in 0..sizes.batch_seeds {
                let (a, b) = (data.root(next), rng.below(sizes.down_nodes) as i64);
                next += 1;
                lines.push(format!("insert {VIEW} {a} {b}"));
                grown += reference.insert_seed(a, b);
            }
            let asked = if i % 2 == 0 { next - 1 } else { unused };
            iterations.push(Iteration {
                batch: Batch { lines, grown },
                ask: ask(asked, rng, &reference),
                select: select(rng.below(next), rng, &reference),
            });
        }
        // One component of every batch committed so far, in turn.
        let mut reads = Vec::new();
        for c in (sizes.initial_seeds..next).step_by(sizes.batch_seeds) {
            reads.push(Read::Ask(ask(c, rng, &reference)));
            reads.push(Read::Ask(ask(unused, rng, &reference)));
            reads.push(Read::Select(select(rng.below(next), rng, &reference)));
        }
        rounds.push(Round {
            iterations,
            count: reference.count(),
            reads,
        });
    }
    Ok(Inputs {
        program,
        initial_count,
        rounds,
        query,
    })
}

/// Relabel `0..n` by a seeded permutation, so node order in the file and
/// in the engine's hash tables differs between seeds at equal size.
fn relabel(n: usize, rng: &mut Rng) -> Vec<i64> {
    let mut labels: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut labels);
    labels
}

fn generate_query(query: Query, scale: Scale, rng: &mut Rng) -> QueryInput {
    match query {
        Query::Dense { side } => {
            let side = scale.root(side);
            let label = relabel(side * side, rng);
            let mut edges = Vec::new();
            for r in 0..side {
                for c in 0..side {
                    let v = r * side + c;
                    if c + 1 < side {
                        edges.push((label[v], label[v + 1]));
                    }
                    if r + 1 < side {
                        edges.push((label[v], label[v + side]));
                    }
                }
            }
            QueryInput {
                program: tc_program(&edges, rng),
                args: Vec::new(),
                tuples: TcRef::from_edges(&edges).count(),
            }
        }
        Query::Sparse { chains, len } => {
            let chains = scale.linear(chains);
            let label = relabel(chains * len, rng);
            let edges: Vec<(i64, i64)> = (0..chains)
                .flat_map(|c| (0..len - 1).map(move |i| c * len + i))
                .map(|v| (label[v], label[v + 1]))
                .collect();
            QueryInput {
                program: tc_program(&edges, rng),
                args: Vec::new(),
                tuples: TcRef::from_edges(&edges).count(),
            }
        }
        Query::Decomposed { seeds } | Query::Separable { seeds } => {
            let sizes = scaled_updown(UPDOWN_FULL, scale);
            let data = UpDownData::new(sizes, rng);
            let mut reference = UpDownRef::new(&data.up, &data.down);
            let seeds: Vec<(i64, i64)> = (0..scale.linear(seeds))
                .map(|c| (data.root(c), rng.below(sizes.down_nodes) as i64))
                .collect();
            for &(a, b) in &seeds {
                reference.insert_seed(a, b);
            }
            let program = data.program(&seeds, rng);
            match query {
                Query::Separable { .. } => {
                    let v = rng.below(sizes.down_nodes) as i64;
                    QueryInput {
                        program,
                        args: vec![format!("1={v}")],
                        tuples: reference.rows_to(v) as u64,
                    }
                }
                _ => QueryInput {
                    program,
                    args: Vec::new(),
                    tuples: reference.count(),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for s in &SCENARIOS {
            let chunks = s.chunks(1.0, Scale::SMOKE);
            let a = s.generate(7, Scale::SMOKE, &chunks).unwrap();
            let b = s.generate(7, Scale::SMOKE, &chunks).unwrap();
            let c = s.generate(8, Scale::SMOKE, &chunks).unwrap();
            assert_eq!(a.script(), b.script(), "{}", s.name);
            assert_ne!(a.script(), c.script(), "{}", s.name);
            assert_ne!(a.query.program, c.query.program, "{}", s.name);
        }
    }

    #[test]
    fn every_round_stops_at_the_wal_tail() {
        for s in &SCENARIOS {
            for tenths in 1..700 {
                let seconds = tenths as f64 / 10.0;
                let chunks = s.chunks(seconds, Scale::FULL);
                for chunk in &chunks {
                    assert_eq!(
                        chunk % s.checkpoint_batches,
                        s.wal_tail,
                        "{} {tenths}",
                        s.name
                    );
                    assert!(*chunk > s.wal_tail, "every round checkpoints");
                }
                let committed: usize = chunks.iter().sum();
                assert!(chunks.len() <= s.rounds);
                assert!(
                    committed > 2 * s.checkpoint_batches,
                    "at least two checkpoints"
                );
                assert!(committed as f64 >= seconds * s.iterations_per_second);
            }
            let (every, tail) = (s.checkpoint_every(Scale::SMOKE), s.tail(Scale::SMOKE));
            assert_eq!(
                s.chunks(0.1, Scale::SMOKE),
                [every + tail, every + tail],
                "{}: the shortest run still checkpoints twice",
                s.name
            );
        }
    }

    #[test]
    fn full_length_runs_fit_the_up_forest() {
        for s in &SCENARIOS {
            let chunks = s.chunks(60.0, Scale::FULL);
            assert!(s.generate(1, Scale::SMOKE, &chunks).is_ok(), "{}", s.name);
        }
    }

    #[test]
    fn scripts_carry_the_expected_answers() {
        let tc = scenario("tc_small_delta").unwrap();
        let inputs = tc.generate(1, Scale::SMOKE, &[3, 1]).unwrap();
        // 50-edge chain: 50·51/2 pairs, plus one per fresh edge.
        assert_eq!(inputs.initial_count, 1275);
        assert_eq!(
            inputs.rounds.iter().map(|r| r.count).collect::<Vec<_>>(),
            [1275 + 30, 1275 + 40]
        );
        let its: Vec<&Iteration> = inputs.rounds.iter().flat_map(|r| &r.iterations).collect();
        assert!(its.iter().all(|it| it.batch.grown == 10));
        assert!(its[0].ask.expect && !its[1].ask.expect);
        // Each round's reads name every batch committed so far.
        assert_eq!(inputs.rounds[0].reads.len(), 3 * 3);
        assert_eq!(inputs.rounds[1].reads.len(), 3 * 4);
        // Grid of side 14: Σ over cells of (cells weakly below-right) − 1.
        assert_eq!(inputs.query.tuples, (14 * 15 / 2) * (14 * 15 / 2) - 14 * 14);

        let ud = scenario("updown_deep_delta").unwrap();
        let inputs = ud.generate(1, Scale::SMOKE, &[2, 2]).unwrap();
        // Strongly connected down (62 nodes), 8-node up chains.
        let per_seed = 8 * 62;
        assert_eq!(inputs.initial_count, per_seed);
        for round in &inputs.rounds {
            assert!(round
                .iterations
                .iter()
                .all(|it| it.batch.grown == 2 * per_seed));
            for read in &round.reads {
                match read {
                    Read::Ask(a) => assert_eq!(a.expect, round.reads[0] == *read || a.expect),
                    Read::Select(s) => assert_eq!(s.rows, 62, "only seeded nodes are selected"),
                }
            }
        }
        assert_eq!(inputs.rounds[1].count, 9 * per_seed);
        assert_eq!(inputs.query.tuples, 3 * per_seed);

        let qs = scenario("query_scratch").unwrap();
        let inputs = qs.generate(1, Scale::SMOKE, &[1]).unwrap();
        assert_eq!(inputs.query.args.len(), 1);
        assert_eq!(inputs.query.tuples, 12 * 8);
    }
}
