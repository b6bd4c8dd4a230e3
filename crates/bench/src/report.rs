//! The one JSON writer and the one timing loop behind every
//! `BENCH_*.json` artifact.
//!
//! A writer builds its artifact as a [`Json`] value, fields in the order
//! they should appear, and hands it to [`crate::write_json`]. Timed
//! quantities come from [`sample`], which calls its closures round-robin
//! and summarizes each as a [`Stat`] (min, median, max). Derived ratios
//! and gates read the minimum: on a shared host noise only ever adds
//! time, and interleaving keeps drift between measurement windows out of
//! the ratios. The spread says how far one sample can be trusted.

/// A JSON value. Objects keep their fields in the order given; numbers
/// are written with a fixed count of decimals.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A non-negative integer.
    Uint(u64),
    /// A number with the given count of decimals; `null` if not finite.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `fields` in the order given.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The value as text ending in a newline. An array or object holding
    /// only scalars is written on one line; any other is indented by two
    /// spaces per level, one item per line.
    pub fn render(&self) -> String {
        self.text(0) + "\n"
    }

    fn text(&self, depth: usize) -> String {
        let (open, close, items): (_, _, Vec<(String, &Json)>) = match self {
            Json::Null => return "null".into(),
            Json::Uint(x) => return x.to_string(),
            &Json::Fixed(x, d) if x.is_finite() => return format!("{x:.d$}"),
            Json::Fixed(..) => return "null".into(),
            Json::Str(s) => return quoted(s),
            Json::Arr(items) => ("[", "]", items.iter().map(|v| (String::new(), v)).collect()),
            Json::Obj(fields) => (
                "{",
                "}",
                fields.iter().map(|(k, v)| (quoted(k) + ": ", v)).collect(),
            ),
        };
        let flat = items
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let items: Vec<String> = items
            .iter()
            .map(|(key, v)| key.clone() + &v.text(depth + 1))
            .collect();
        if flat {
            return format!("{open}{}{close}", items.join(", "));
        }
        let (pad, outer) = ("  ".repeat(depth + 1), "  ".repeat(depth));
        format!(
            "{open}\n{pad}{}\n{outer}{close}",
            items.join(&format!(",\n{pad}"))
        )
    }
}

/// `s` as a JSON string: quotes, backslashes and control characters
/// escaped.
fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

macro_rules! json_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Uint(x as u64)
            }
        }
    )*};
}
json_from_uint!(u32, u64, usize);

/// The spread of one quantity over repeated samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The smallest sample: what derived ratios and gates read.
    pub min: f64,
    /// The middle sample, or the mean of the middle two.
    pub median: f64,
    /// The largest sample.
    pub max: f64,
    /// How many samples there were.
    pub samples: usize,
}

impl Stat {
    /// The spread of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Stat {
        assert!(!values.is_empty(), "a Stat needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Stat {
            min: v[0],
            // The middle value twice when n is odd.
            median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
            max: v[n - 1],
            samples: n,
        }
    }

    /// `{"min", "median", "max", "samples"}`, the numbers with `decimals`
    /// decimals.
    pub fn json(&self, decimals: usize) -> Json {
        Json::obj([
            ("min", Json::Fixed(self.min, decimals)),
            ("median", Json::Fixed(self.median, decimals)),
            ("max", Json::Fixed(self.max, decimals)),
            ("samples", self.samples.into()),
        ])
    }
}

/// Calls every closure of `fs` once per round for `samples` rounds,
/// round-robin, and summarizes what each returned, usually the seconds
/// of the work it timed with [`crate::timed`]. A closure times only its
/// own work, so set-up such as clearing a directory stays out of the
/// numbers.
pub fn sample<F: FnMut() -> f64>(samples: usize, fs: &mut [F]) -> Vec<Stat> {
    let mut values = vec![Vec::with_capacity(samples); fs.len()];
    for _ in 0..samples {
        for (v, f) in values.iter_mut().zip(fs.iter_mut()) {
            v.push(f());
        }
    }
    values.iter().map(|v| Stat::of(v)).collect()
}

/// The threads this process can run at once
/// (`std::thread::available_parallelism`, 1 where unknown), recorded in
/// every timed artifact: a thread count above it measures
/// oversubscription, not scaling.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("a\"b\\c\nd\u{1}e\u{7f}é");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\u000ad\\u0001e\u{7f}é\"\n");
        let key = Json::obj([("x\"y", Json::Null)]);
        assert_eq!(key.render(), "{\"x\\\"y\": null}\n");
    }

    #[test]
    fn objects_keep_key_order_and_fixed_decimals() {
        let v = Json::obj([
            ("zeta", Json::Fixed(1.0, 3)),
            ("alpha", Json::Fixed(2.345_678, 2)),
            ("count", 7u32.into()),
            ("whole", Json::Fixed(204_428.6, 0)),
        ]);
        assert_eq!(
            v.render(),
            "{\"zeta\": 1.000, \"alpha\": 2.35, \"count\": 7, \"whole\": 204429}\n"
        );
    }

    #[test]
    fn null_non_finite_and_nested_arrays() {
        let v = Json::obj([
            ("none", Json::Null),
            ("inf", Json::Fixed(f64::INFINITY, 2)),
            (
                "nested",
                Json::Arr(vec![Json::Arr(vec![1u64.into()]), Json::Arr(vec![])]),
            ),
            ("empty", Json::obj([])),
        ]);
        let expect = "{\n  \"none\": null,\n  \"inf\": null,\n  \"nested\": [\n    [1],\n    []\n  ],\n  \"empty\": {}\n}\n";
        assert_eq!(v.render(), expect);
    }

    #[test]
    fn sampler_calls_its_closures_round_robin() {
        let calls = &RefCell::new(Vec::new());
        let call = |i: usize| {
            move || {
                calls.borrow_mut().push(i);
                i as f64
            }
        };
        let stats = sample(3, &mut [call(0), call(1)]);
        assert_eq!(*calls.borrow(), [0, 1, 0, 1, 0, 1]);
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].samples, stats[1].min), (3, 1.0));
    }

    #[test]
    fn stat_orders_min_median_max_for_odd_and_even_counts() {
        let odd = Stat::of(&[5.0, 1.0, 3.0, 9.0, 2.0]);
        assert_eq!(
            (odd.min, odd.median, odd.max, odd.samples),
            (1.0, 3.0, 9.0, 5)
        );
        let even = Stat::of(&[4.0, 1.0, 8.0, 2.0]);
        assert_eq!((even.min, even.median, even.max), (1.0, 3.0, 8.0));
        for s in [odd, even, Stat::of(&[0.5])] {
            assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
        }
        assert_eq!(
            even.json(1).render(),
            "{\"min\": 1.0, \"median\": 3.0, \"max\": 8.0, \"samples\": 4}\n"
        );
    }
}
