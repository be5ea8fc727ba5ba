//! Seeded specification generators for the excitation sweeps: both
//! give `.g` texts that are often not speed-independent or not
//! CSC-conflict-free, which the corpus never is. A text may fail to
//! parse or build; callers skip those.

/// Deterministic splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0x2545f4914f6cdd1d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One to three parallel components, each a marked choice place `cK`
/// whose branches are pulses (`x+ x-`, sometimes followed by a second
/// signal's pulse) of signals with random kinds. A branch may reuse a
/// signal another branch of its choice starts with, as a second
/// instance (`x+/2`). Then random extra arcs between transitions
/// (marked or not), and sometimes a read arc from a choice place to a
/// transition of another component, which lets that component disable
/// one instance of an edge and not the other.
pub fn choice_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let kinds = [".inputs", ".outputs", ".internal"];
    let mut declared: Vec<(String, &str)> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut marking: Vec<String> = Vec::new();
    // Every transition label, by component.
    let mut labels: Vec<Vec<String>> = Vec::new();
    let components = 1 + rng.below(3);
    for k in 0..components {
        let pool: Vec<String> = (0..1 + rng.below(3)).map(|m| format!("s{k}{m}")).collect();
        for sig in &pool {
            declared.push((sig.clone(), kinds[rng.below(3)]));
        }
        // Instances used so far, per signal of the pool.
        let mut used = vec![0usize; pool.len()];
        let mut instance = |m: usize| {
            used[m] += 1;
            match used[m] {
                1 => String::new(),
                i => format!("/{i}"),
            }
        };
        let place = format!("c{k}");
        marking.push(place.clone());
        let mut firsts = Vec::new();
        let mut body = Vec::new();
        let mut mine = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut pulse = vec![rng.below(pool.len())];
            if rng.below(3) == 0 && pool.len() > 1 {
                pulse.push((pulse[0] + 1 + rng.below(pool.len() - 1)) % pool.len());
            }
            let mut chain = Vec::new();
            for &m in &pulse {
                let i = instance(m);
                chain.push(format!("{}+{i}", pool[m]));
                chain.push(format!("{}-{i}", pool[m]));
            }
            firsts.push(chain[0].clone());
            for w in chain.windows(2) {
                body.push(format!("{} {}", w[0], w[1]));
            }
            body.push(format!("{} {place}", chain[chain.len() - 1]));
            mine.extend(chain);
        }
        // The branches come first, so each label's instances appear in
        // the file in order, as the parser requires.
        lines.extend(body);
        lines.push(format!("{place} {}", firsts.join(" ")));
        labels.push(mine);
    }
    let all: Vec<String> = labels.iter().flatten().cloned().collect();
    for _ in 0..rng.below(3) {
        let (from, to) = (rng.pick(&all).clone(), rng.pick(&all).clone());
        if from == to {
            continue;
        }
        lines.push(format!("{from} {to}"));
        if rng.below(2) == 0 {
            marking.push(format!("<{from},{to}>"));
        }
    }
    if components > 1 && rng.below(3) == 0 {
        let k = rng.below(components);
        let other = (k + 1 + rng.below(components - 1)) % components;
        let t = rng.pick(&labels[other]).clone();
        lines.push(format!("c{k} {t}"));
        lines.push(format!("{t} c{k}"));
    }
    let mut g = format!(".model choice{seed}\n");
    for kind in kinds {
        let names: Vec<&str> = declared
            .iter()
            .filter(|(_, d)| *d == kind)
            .map(|(n, _)| n.as_str())
            .collect();
        if !names.is_empty() {
            g.push_str(&format!("{kind} {}\n", names.join(" ")));
        }
    }
    g.push_str(".graph\n");
    for line in lines {
        g.push_str(&line);
        g.push('\n');
    }
    g.push_str(&format!(".marking {{ {} }}\n.end\n", marking.join(" ")));
    g
}

/// One to three random edits of `src`'s graph and marking lines: delete
/// or duplicate a line, swap two tokens, overwrite a token with another
/// one of the text, or drop a marking entry.
pub fn mutate(src: &str, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
    let first = lines
        .iter()
        .position(|l| l.trim() == ".graph")
        .map_or(0, |i| i + 1);
    let last = lines
        .iter()
        .position(|l| l.trim_start().starts_with(".marking"))
        .unwrap_or(lines.len());
    let tokens: Vec<String> = lines[first..last]
        .iter()
        .flat_map(|l| l.split_whitespace().map(str::to_string))
        .collect();
    if first >= last || tokens.is_empty() {
        return src.to_string();
    }
    let mut last = last;
    for _ in 0..1 + rng.below(3) {
        let at = first + rng.below(last - first);
        match rng.below(5) {
            0 if last - first > 1 => {
                lines.remove(at);
                last -= 1;
            }
            1 => {
                let copy = lines[at].clone();
                lines.insert(at, copy);
                last += 1;
            }
            2 => {
                let other = first + rng.below(last - first);
                let mut a: Vec<String> = lines[at].split_whitespace().map(str::to_string).collect();
                let mut b: Vec<String> = lines[other]
                    .split_whitespace()
                    .map(str::to_string)
                    .collect();
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let (i, j) = (rng.below(a.len()), rng.below(b.len()));
                if at == other {
                    let j = j.min(a.len() - 1);
                    a.swap(i, j);
                } else {
                    std::mem::swap(&mut a[i], &mut b[j]);
                    lines[other] = b.join(" ");
                }
                lines[at] = a.join(" ");
            }
            3 => {
                let mut a: Vec<String> = lines[at].split_whitespace().map(str::to_string).collect();
                if a.is_empty() {
                    continue;
                }
                let i = rng.below(a.len());
                a[i] = rng.pick(&tokens).clone();
                lines[at] = a.join(" ");
            }
            _ => {
                let Some(m) = lines.get_mut(last) else {
                    continue;
                };
                let inner: Vec<String> = m
                    .trim()
                    .trim_start_matches(".marking")
                    .trim()
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .split_whitespace()
                    .map(str::to_string)
                    .collect();
                if inner.len() < 2 {
                    continue;
                }
                let drop = rng.below(inner.len());
                let kept: Vec<&str> = inner
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, t)| t.as_str())
                    .collect();
                *m = format!(".marking {{ {} }}", kept.join(" "));
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}
