//! Seeded mini-Fortran routine generator.
//!
//! Routine `index` of `stream` is a pure function of `(seed, stream,
//! index)`, so a workload can generate lazily, chunk by chunk, and still
//! see the same inputs for the same seed. Streams keep set-up, timed and
//! per-workload inputs disjoint.
//!
//! Structure comes from the index alone: the loop shape rotates with it
//! (`index % SHAPES`), and bounds, statement counts, expression sizes and
//! operators are drawn from an index-seeded generator. The seed draws
//! names and constants. So every seed sees the same operations in every
//! prefix of a stream, and a time-bounded run does comparable work
//! whatever the seed — which the run-to-run spread across seeds depends
//! on; operators stay out of the seed's hands because they change costs,
//! and costs steer how much of the variant space a search explores. Every shape is one the paper's pipeline handles:
//! element-wise loops, reductions, stencils, triangular and three-deep
//! nests, branches, fusable loop pairs and straight-line code.

/// Number of loop shapes the generator rotates through.
pub const SHAPES: u64 = 8;

/// Input streams. Each workload draws from its own, so no two phases of
/// one run share a routine.
pub mod stream {
    /// Routines predicted in the timed phase of `predict_cold`.
    pub const COLD: u64 = 1;
    /// Warm-pass routines of `predict_cold`'s set-up (one block per rep).
    pub const COLD_SETUP: u64 = 2;
    /// Working sets of `predict_warm` (one per set-up rep).
    pub const WARM: u64 = 3;
    /// Routines searched by `search_session`.
    pub const SEARCH: u64 = 4;
    /// Routines sent to the server.
    pub const SERVER: u64 = 6;
    /// The set-up wave of `server_stream` (one per rep).
    pub const SERVER_SETUP: u64 = 7;
}

/// SplitMix64: small, fast, and good enough to pick program shapes.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn mixed(seed: u64, stream: u64, index: u64) -> Rng {
    let mut mix = Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    Rng::new(mix.next_u64() ^ index.wrapping_mul(0xa076_1d64_78bd_642f))
}

/// Real-typed names (arrays and scalars); none starts with `i`–`n`, so
/// none collides with the integer loop variables or implicit typing.
const NAMES: [&str; 16] = [
    "a", "b", "c", "d", "e", "f", "g", "h", "p", "q", "r", "u", "v", "w", "x", "y",
];

/// The two draws behind one routine: `shape` decides structure and
/// operators (seeded by the index only), `lex` decides names and
/// constants (seeded by the seed too).
struct Draw {
    shape: Rng,
    lex: Rng,
}

impl Draw {
    /// `k` distinct names.
    fn names(&mut self, k: usize) -> Vec<&'static str> {
        let mut pool = NAMES.to_vec();
        for i in 0..k {
            let j = i + self.lex.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    fn constant(&mut self) -> String {
        format!("{}.{}", self.lex.below(9) + 1, self.lex.below(10))
    }

    /// An expression with `terms` operands over `leaves` (or constants).
    fn expr(&mut self, leaves: &[String], terms: usize) -> String {
        let leaf = |d: &mut Draw| {
            if d.shape.chance(20) {
                d.constant()
            } else {
                d.shape.pick(leaves).clone()
            }
        };
        let mut e = leaf(self);
        for _ in 1..terms {
            let op = *self.shape.pick(&["+", "-", "*", "+", "*", "/"]);
            let rhs = leaf(self);
            e = if self.shape.chance(25) {
                format!("({e}) {op} {rhs}")
            } else {
                format!("{e} {op} {rhs}")
            };
        }
        match self.shape.below(10) {
            0 => format!("sqrt(abs({e}))"),
            1 => format!("max({e}, {})", leaf(self)),
            2 => format!("min({e}, {})", leaf(self)),
            _ => e,
        }
    }

    fn terms(&mut self, least: u64, spread: u64) -> usize {
        (least + self.shape.below(spread)) as usize
    }
}

/// Assembles a routine from its parameter list, declarations and body.
fn emit(name: &str, params: &[String], decls: &[String], body: &[String]) -> String {
    let mut src = format!("subroutine {name}({})\n", params.join(", "));
    for line in decls.iter().chain(body) {
        src.push_str("  ");
        src.push_str(line);
        src.push('\n');
    }
    src.push_str("end\n");
    src
}

fn params_of(arrays: &[&str], scalars: &[&str]) -> Vec<String> {
    arrays
        .iter()
        .chain(scalars)
        .map(|s| s.to_string())
        .chain(std::iter::once("n".to_string()))
        .collect()
}

fn real_decl(arrays: &[&str], dims: &str, scalars: &[&str]) -> String {
    let mut vars: Vec<String> = arrays.iter().map(|a| format!("{a}({dims})")).collect();
    vars.extend(scalars.iter().map(|s| s.to_string()));
    format!("real {}", vars.join(", "))
}

/// Routine `index` of `stream` for `seed`.
pub fn routine(seed: u64, stream: u64, index: u64) -> String {
    let mut d = Draw {
        shape: mixed(0, stream, index),
        lex: mixed(seed, stream, index),
    };
    let name = format!("g{stream}x{index}");
    let lb = *d.shape.pick(&["1", "1", "2"]);
    let step = if d.shape.chance(20) { ", 2" } else { "" };
    match index % SHAPES {
        // Element-wise update, one to three statements.
        0 => {
            let v = d.names(4);
            let (arrays, scalars) = (&v[..3], &v[3..]);
            let leaves: Vec<String> = arrays
                .iter()
                .map(|a| format!("{a}(i)"))
                .chain(scalars.iter().map(|s| s.to_string()))
                .collect();
            let mut body = vec![format!("do i = {lb}, n{step}")];
            for target in arrays.iter().take(d.terms(1, 3)) {
                let terms = d.terms(2, 3);
                body.push(format!("  {target}(i) = {}", d.expr(&leaves, terms)));
            }
            body.push("end do".into());
            emit(
                &name,
                &params_of(arrays, scalars),
                &[real_decl(arrays, "n", scalars), "integer i, n".into()],
                &body,
            )
        }
        // Scalar reduction.
        1 => {
            let v = d.names(4);
            let (arrays, scalars) = (&v[..2], &v[2..]);
            let (s, t) = (scalars[0], scalars[1]);
            let op = *d.shape.pick(&["*", "+", "-"]);
            let mut body = vec![
                format!("{s} = {}", d.constant()),
                format!("do i = {lb}, n{step}"),
                format!("  {s} = {s} + {}(i) {op} {}(i)", arrays[0], arrays[1]),
            ];
            if d.shape.chance(50) {
                body.push(format!("  {t} = max({t}, {}(i))", arrays[0]));
            }
            body.push("end do".into());
            body.push(format!("{}(1) = {s} * {t}", arrays[1]));
            emit(
                &name,
                &params_of(arrays, scalars),
                &[real_decl(arrays, "n", scalars), "integer i, n".into()],
                &body,
            )
        }
        // Two-dimensional stencil.
        2 => {
            let v = d.names(3);
            let (a, b, w) = (v[0], v[1], v[2]);
            let mut taps = vec![format!("{b}(i-1,j)"), format!("{b}(i+1,j)")];
            if d.shape.chance(70) {
                taps.push(format!("{b}(i,j-1)"));
            }
            if d.shape.chance(70) {
                taps.push(format!("{b}(i,j+1)"));
            }
            let mut rhs = format!("{} * ({})", d.constant(), taps.join(" + "));
            if d.shape.chance(50) {
                rhs.push_str(&format!(" + {w} * {b}(i,j)"));
            }
            let body = vec![
                "do j = 2, n-1".into(),
                "  do i = 2, n-1".into(),
                format!("    {a}(i,j) = {rhs}"),
                "  end do".into(),
                "end do".into(),
            ];
            emit(
                &name,
                &params_of(&[a, b], &[w]),
                &[real_decl(&[a, b], "n,n", &[w]), "integer i, j, n".into()],
                &body,
            )
        }
        // Triangular nest.
        3 => {
            let v = d.names(3);
            let (y, x, s) = (v[0], v[1], v[2]);
            let leaves = [format!("{x}(j)"), format!("{y}(j)"), s.to_string()];
            let terms = d.terms(2, 2);
            let body = vec![
                format!("do i = {lb}, n"),
                "  do j = i, n".into(),
                format!("    {y}(j) = {y}(j) + {}", d.expr(&leaves, terms)),
                "  end do".into(),
                "end do".into(),
            ];
            emit(
                &name,
                &params_of(&[y, x], &[s]),
                &[real_decl(&[y, x], "n", &[s]), "integer i, j, n".into()],
                &body,
            )
        }
        // Data-dependent branch in the loop body.
        4 => {
            let v = d.names(4);
            let (arrays, scalars) = (&v[..3], &v[3..]);
            let leaves: Vec<String> = arrays[1..]
                .iter()
                .map(|a| format!("{a}(i)"))
                .chain(scalars.iter().map(|s| s.to_string()))
                .collect();
            let rel = *d.shape.pick(&[".gt.", ".lt.", ".ge."]);
            let terms = d.terms(2, 2);
            let threshold = d.constant();
            let then = d.expr(&leaves, terms);
            let other = d.expr(&leaves, 2);
            let body = vec![
                format!("do i = {lb}, n{step}"),
                format!("  if ({}(i) {rel} {threshold}) then", arrays[1]),
                format!("    {}(i) = {then}", arrays[0]),
                "  else".into(),
                format!("    {}(i) = {other}", arrays[0]),
                "  end if".into(),
                "end do".into(),
            ];
            emit(
                &name,
                &params_of(arrays, scalars),
                &[real_decl(arrays, "n", scalars), "integer i, n".into()],
                &body,
            )
        }
        // Two fusable loops over the same range.
        5 => {
            let v = d.names(4);
            let (arrays, scalars) = (&v[..3], &v[3..]);
            let first = [format!("{}(i)", arrays[1]), scalars[0].to_string()];
            let second = [format!("{}(i)", arrays[0]), format!("{}(i)", arrays[1])];
            let body = vec![
                format!("do i = {lb}, n"),
                format!("  {}(i) = {}", arrays[0], d.expr(&first, 2)),
                "end do".into(),
                format!("do i = {lb}, n"),
                format!("  {}(i) = {}", arrays[2], d.expr(&second, 2)),
                "end do".into(),
            ];
            emit(
                &name,
                &params_of(arrays, scalars),
                &[real_decl(arrays, "n", scalars), "integer i, n".into()],
                &body,
            )
        }
        // Three-deep matrix-multiply-like nest.
        6 => {
            let v = d.names(3);
            let (a, b, c) = (v[0], v[1], v[2]);
            let extra = if d.shape.chance(40) {
                format!(" + {} * {a}(i,j)", d.constant())
            } else {
                String::new()
            };
            let body = vec![
                "do j = 1, n".into(),
                "  do k = 1, n".into(),
                "    do i = 1, n".into(),
                format!("      {c}(i,j) = {c}(i,j) + {a}(i,k) * {b}(k,j){extra}"),
                "    end do".into(),
                "  end do".into(),
                "end do".into(),
            ];
            emit(
                &name,
                &params_of(&[a, b, c], &[]),
                &[
                    real_decl(&[a, b, c], "n,n", &[]),
                    "integer i, j, k, n".into(),
                ],
                &body,
            )
        }
        // Straight-line code, no loop.
        _ => {
            let v = d.names(4);
            let (arrays, scalars) = (&v[..2], &v[2..]);
            let mut leaves: Vec<String> =
                (1..=4).map(|k| format!("{}({k})", arrays[k % 2])).collect();
            leaves.extend(scalars.iter().map(|s| s.to_string()));
            let mut body = Vec::new();
            for k in 0..d.terms(3, 3) {
                let target = if k % 2 == 0 {
                    format!("{}({})", arrays[0], k + 1)
                } else {
                    scalars[k / 2 % 2].to_string()
                };
                let terms = d.terms(2, 3);
                body.push(format!("{target} = {}", d.expr(&leaves, terms)));
            }
            emit(
                &name,
                &params_of(arrays, scalars),
                &[real_decl(arrays, "n", scalars), "integer n".into()],
                &body,
            )
        }
    }
}
