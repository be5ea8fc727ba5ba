//! Seeded generation of every `.g` source the benchmark feeds the
//! program, and of the order it feeds them in.
//!
//! The seed picks a signal-name prefix shared by every name of a
//! specification (so the relative order of names, and with it every
//! tie-break in the pipeline, is the same for all seeds) and the order
//! of the requests. The *multiset* of input families and sizes is fixed
//! per workload, so the cost distribution — and therefore every
//! end-to-end metric — does not depend on the seed; only the bytes and
//! the order do. The same seed gives byte-identical inputs (pinned by
//! the tests below).
//!
//! Generators write every signal and model name with a `$` marker that
//! [`Names::apply`] replaces by the seeded prefix.

use std::fmt::Write as _;

/// SplitMix64: a small, well-mixed, dependency-free generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f00d_be4c_4a11)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seeded naming of one run: a lowercase prefix put in front of
/// every signal and model name.
#[derive(Debug, Clone)]
pub struct Names {
    prefix: String,
}

impl Names {
    pub fn from_seed(seed: u64) -> Names {
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let prefix = (0..3)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        Names { prefix }
    }

    pub fn apply(&self, template: &str) -> String {
        template.replace('$', &self.prefix)
    }
}

// --- complete: the scaled fork/join controller ------------------------

/// Fork/join controller with `n` concurrent request/acknowledge
/// branches: `2·3^n + 2` states. Included because it puts nearly all
/// the work in the ROADMAP's item-2 layers (state-graph build, derive +
/// minimize, verify, score) at a size chosen by one number.
///
/// `padded` adds a series `.dummy` on every branch edge (raw state
/// space `2·4^n + 2`) that structural pre-reduction merges away, so the
/// built graph is the plain one: the padded half measures `prereduce`.
pub fn scaled(n: usize, padded: bool) -> String {
    let mut g = String::new();
    let _ = writeln!(g, ".model $scaled{n}{}", if padded { "p" } else { "" });
    let _ = write!(g, ".inputs $go");
    for i in 1..=n {
        let _ = write!(g, " $a{i}");
    }
    let _ = write!(g, "\n.outputs $done");
    for i in 1..=n {
        let _ = write!(g, " $r{i}");
    }
    let _ = writeln!(g);
    if padded {
        let _ = write!(g, ".dummy");
        for i in 1..=n {
            let _ = write!(g, " $pu{i} $pd{i}");
        }
        let _ = writeln!(g);
    }
    let _ = writeln!(g, ".graph");
    for (edge, start, end, dummy) in [('+', "$go+", "$done+", "pu"), ('-', "$go-", "$done-", "pd")]
    {
        for i in 1..=n {
            let _ = writeln!(g, "{start} $r{i}{edge}");
            if padded {
                let _ = writeln!(g, "$r{i}{edge} ${dummy}{i}\n${dummy}{i} $a{i}{edge}");
            } else {
                let _ = writeln!(g, "$r{i}{edge} $a{i}{edge}");
            }
            let _ = writeln!(g, "$a{i}{edge} {end}");
        }
        let _ = writeln!(g, "{end} {}", if edge == '+' { "$go-" } else { "$go+" });
    }
    let _ = writeln!(g, ".marking {{ <$done-,$go+> }}\n.end");
    g
}

/// Closed-form state count of [`scaled`] after pre-reduction.
pub fn scaled_states(n: usize) -> usize {
    2 * 3usize.pow(n as u32) + 2
}

// --- partial families (Sections 3-4 of the paper) ---------------------

/// The corpus's partial two-phase left/right coupler. Included because
/// it is the paper's motivating reshuffling example: expansion alone
/// needs two state signals, expansion + reduction recovers the
/// sequential converter.
pub const HSLR: &str = "\
.model $hslr
.inputs $lr $ra
.outputs $la $rr
.handshake $lr $la
.handshake $rr $ra
.graph
$lr~ $rr~
$rr~ $ra~
$ra~ $la~
$la~ $lr~
.marking { <$la~,$lr~> }
.end
";

/// The corpus's partial `creq`. Included because its ranked selection
/// picks an interior lattice point (neither extreme), so it exercises
/// the timing-ranked choice among many candidates.
pub const PCREQ: &str = "\
.model $pcreq
.inputs $Ack
.outputs $Req $Go
.handshake $Req $Ack
.graph
$Req~ $Ack~
$Ack~ $Go+
$Go+ $Go-
$Go- $Req~
.marking { <$Go-,$Req~> }
.end
";

/// One open channel followed by `k` output pulses, one after the other
/// (`concurrent = false`) or forked in parallel. Included because the
/// open return-to-zero edges can land between any of the pulses: the
/// lattice grows with `k`, and most candidates need CSC insertion, so
/// this family is dominated by `synth` resolve.
pub fn pulses(k: usize, concurrent: bool) -> String {
    let mut g = String::new();
    let tag = if concurrent { "c" } else { "s" };
    let _ = writeln!(g, ".model $pulses{tag}{k}\n.inputs $ack");
    let _ = write!(g, ".outputs $req");
    for i in 1..=k {
        let _ = write!(g, " $p{i}");
    }
    let _ = writeln!(g, "\n.handshake $req $ack\n.graph\n$req~ $ack~");
    if concurrent {
        let _ = write!(g, "$ack~");
        for i in 1..=k {
            let _ = write!(g, " $p{i}+");
        }
        let _ = writeln!(g);
        for i in 1..=k {
            let _ = writeln!(g, "$p{i}+ $p{i}-\n$p{i}- $req~");
        }
        let _ = write!(g, ".marking {{");
        for i in 1..=k {
            let _ = write!(g, " <$p{i}-,$req~>");
        }
        let _ = writeln!(g, " }}\n.end");
    } else {
        let mut prev = "$ack~".to_string();
        for i in 1..=k {
            let _ = writeln!(g, "{prev} $p{i}+\n$p{i}+ $p{i}-");
            prev = format!("$p{i}-");
        }
        let _ = writeln!(g, "{prev} $req~\n.marking {{ <{prev},$req~> }}\n.end");
    }
    g
}

/// A passive channel and an active channel with `k` internal pulses
/// between the request coming in and the request going out. Included
/// because two open channels give a product lattice, and the internal
/// signals give the CSC search places to insert: resolve-dominated
/// with reduce off, reduce-dominated with it on.
pub fn two_channel(k: usize) -> String {
    let mut g = String::new();
    let _ = writeln!(g, ".model $twochan{k}\n.inputs $lr $ra\n.outputs $la $rr");
    let _ = write!(g, ".internal");
    for i in 1..=k {
        let _ = write!(g, " $x{i}");
    }
    let _ = writeln!(g, "\n.handshake $lr $la\n.handshake $rr $ra\n.graph");
    let mut prev = "$lr~".to_string();
    for i in 1..=k {
        let _ = writeln!(g, "{prev} $x{i}+\n$x{i}+ $x{i}-");
        prev = format!("$x{i}-");
    }
    let _ = writeln!(g, "{prev} $rr~\n$rr~ $ra~\n$ra~ $la~\n$la~ $lr~");
    let _ = writeln!(g, ".marking {{ <$la~,$lr~> }}\n.end");
    g
}

/// `k` active channels in a ring, each acknowledge starting the next
/// request. Included because every channel's return-to-zero is open at
/// once: the widest lattice per signal, so `handshake` expansion and
/// its prefix sharing carry more of the work than in the other
/// families.
pub fn ring(k: usize) -> String {
    let mut g = String::new();
    let _ = write!(g, ".model $ring{k}\n.inputs");
    for i in 1..=k {
        let _ = write!(g, " $a{i}");
    }
    let _ = write!(g, "\n.outputs");
    for i in 1..=k {
        let _ = write!(g, " $r{i}");
    }
    let _ = writeln!(g);
    for i in 1..=k {
        let _ = writeln!(g, ".handshake $r{i} $a{i}");
    }
    let _ = writeln!(g, ".graph");
    for i in 1..=k {
        let next = i % k + 1;
        let _ = writeln!(g, "$r{i}~ $a{i}~\n$a{i}~ $r{next}~");
    }
    let _ = writeln!(g, ".marking {{ <$a{k}~,$r1~> }}\n.end");
    g
}

// --- complete corpus entries (served by the `serve` workload) --------

/// The complete entries of the repository's example corpus, renamed
/// with `$`. Included in `serve`'s warm set because they are the
/// specifications the golden suite pins, in all their option modes.
pub const CORPUS: &[(&str, &str)] = &[
    (
        "toggle",
        ".model $toggle\n.inputs $a\n.outputs $b\n.graph\n$a+ $b+\n$b+ $a-\n$a- $b-\n$b- $a+\n\
         .marking { <$b-,$a+> }\n.end\n",
    ),
    (
        "xyz",
        ".model $xyz\n.inputs $x\n.outputs $y $z\n.graph\n$x+ $y+\n$y+ $z+\n$z+ $x-\n$x- $y-\n\
         $y- $z-\n$z- $x+\n.marking { <$z-,$x+> }\n.end\n",
    ),
    (
        "lr",
        ".model $lr\n.inputs $lr $ra\n.outputs $la $rr\n.graph\n$lr+ $rr+\n$rr+ $ra+\n$ra+ $la+\n\
         $la+ $lr-\n$lr- $rr-\n$rr- $ra-\n$ra- $la-\n$la- $lr+\n.marking { <$la-,$lr+> }\n.end\n",
    ),
    (
        "mmu",
        ".model $mmu\n.inputs $x\n.outputs $y1 $y2 $y3 $y4\n.graph\n$x+ $y1+\n$y1+ $y2+\n\
         $y2+ $y3+\n$y3+ $y4+\n$y4+ $x-\n$x- $y1-\n$y1- $y2-\n$y2- $y3-\n$y3- $y4-\n$y4- $x+\n\
         .marking { <$y4-,$x+> }\n.end\n",
    ),
    (
        "par",
        ".model $par\n.inputs $go $a1 $a2\n.outputs $r1 $r2 $done\n.graph\n$go+ $r1+ $r2+\n\
         $r1+ $a1+\n$r2+ $a2+\n$a1+ $done+\n$a2+ $done+\n$done+ $go-\n$go- $r1- $r2-\n\
         $r1- $a1-\n$r2- $a2-\n$a1- $done-\n$a2- $done-\n$done- $go+\n\
         .marking { <$done-,$go+> }\n.end\n",
    ),
    (
        "mfig1",
        ".model $mfig1\n.inputs $Ack\n.outputs $Req\n.graph\n$Ack+ $Req-\n$Req- $Req+ $Ack-\n\
         $Ack- $Ack+\n$Req+ $Ack+\n.marking { <$Req+,$Ack+> <$Ack-,$Ack+> }\n.end\n",
    ),
    (
        "creq",
        ".model $creq\n.inputs $Ack\n.outputs $Req $Go\n.graph\n$Ack+ $Go+\n$Go+ $Req-\n\
         $Req- $Req+ $Ack-\n$Ack- $Go-\n$Req+ $Ack+\n$Go- $Ack+\n\
         .marking { <$Req+,$Ack+> <$Go-,$Ack+> }\n.end\n",
    ),
];

/// Renames the model of `g` (first line `.model <name>`) by appending
/// `suffix`: a new canonical fingerprint, so a server must execute it,
/// while the circuit is the original's.
pub fn rename_model(g: &str, suffix: &str) -> String {
    let (first, rest) = g.split_once('\n').expect("generated sources have lines");
    format!("{first}{suffix}\n{rest}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sources_parse() {
        let names = Names::from_seed(3);
        let mut all = vec![scaled(3, false), scaled(3, true), pulses(2, false)];
        all.extend([pulses(2, true), two_channel(1), ring(3)]);
        all.extend([HSLR.to_string(), PCREQ.to_string()]);
        all.extend(CORPUS.iter().map(|(_, g)| g.to_string()));
        for g in all {
            let g = names.apply(&g);
            reshuffle::parse_g(&g).unwrap_or_else(|e| panic!("{e}\n{g}"));
        }
    }
}
