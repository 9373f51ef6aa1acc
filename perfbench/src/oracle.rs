//! The correctness oracle: expected join cardinalities computed with a
//! plain `HashMap` over the generated tuples, never through the engine.

use dbs3::storage::{Tuple, Value};
use std::collections::HashMap;

/// Number of pairs `(o, i)` with `o[outer_column] == i[inner_column]`.
pub fn join_cardinality<'a>(
    outer: impl IntoIterator<Item = &'a Tuple>,
    outer_column: usize,
    inner: impl IntoIterator<Item = &'a Tuple>,
    inner_column: usize,
) -> u64 {
    let mut counts: HashMap<&Value, u64> = HashMap::new();
    for tuple in inner {
        *counts.entry(tuple.value(inner_column)).or_default() += 1;
    }
    outer
        .into_iter()
        .map(|tuple| counts.get(tuple.value(outer_column)).copied().unwrap_or(0))
        .sum()
}
