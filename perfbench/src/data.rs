//! The workloads' inputs: Wisconsin `A` and `B'` at the paper's
//! cardinalities, generated from the run's seed, and the seeded generator
//! behind the served mix and its arrivals.

use dbs3::prelude::*;
use dbs3::storage::StorageError;
use std::result::Result;

/// Name of the large relation.
pub const A: &str = "A";
/// Name of the small relation (the paper's `B'`).
pub const B: &str = "Bprime";
/// Join and partitioning attribute.
pub const JOIN_COLUMN: &str = "unique1";
/// Result store of both plans.
pub const RESULT: &str = "Result";
/// Zipf θ of the skewed `A` (paper Section 5.4).
pub const SKEW_THETA: f64 = 1.0;
/// Disks fragments are placed on, round-robin.
const DISKS: usize = 8;

/// Cardinalities and degree of partitioning of one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Tuples of `A`.
    pub a: usize,
    /// Tuples of `B'`.
    pub b: usize,
    /// Fragments of each relation.
    pub degree: usize,
}

/// The paper's cardinalities: `A` 200K, `B'` 20K, degree 200.
pub const PAPER: Sizes = Sizes {
    a: 200_000,
    b: 20_000,
    degree: 200,
};

/// The generated base relations, before partitioning.
#[derive(Debug)]
pub struct Base {
    /// Relation `A`.
    pub a: Relation,
    /// Relation `B'`.
    pub b: Relation,
    /// Sizes they were generated at.
    pub sizes: Sizes,
}

impl Base {
    /// Generates `A` and `B'` with `unique1` permutations drawn from `seed`.
    pub fn generate(sizes: Sizes, seed: u64) -> Result<Base, StorageError> {
        let mut rng = Rng::new(seed);
        let generator = WisconsinGenerator::new();
        let a =
            generator.generate(&WisconsinConfig::narrow(A, sizes.a).with_seed(rng.next_u64()))?;
        let b =
            generator.generate(&WisconsinConfig::narrow(B, sizes.b).with_seed(rng.next_u64()))?;
        Ok(Base { a, b, sizes })
    }

    /// The partitioning every relation of the workloads uses.
    pub fn spec(&self) -> PartitionSpec {
        PartitionSpec::on(JOIN_COLUMN, self.sizes.degree, DISKS)
    }

    /// Partitions `A`, Zipf(θ)-skewed when `theta > 0`.
    pub fn partition_a(&self, theta: f64) -> Result<PartitionedRelation, StorageError> {
        if theta > 0.0 {
            PartitionedRelation::from_relation_with_skew(&self.a, self.spec(), theta)
        } else {
            PartitionedRelation::from_relation(&self.a, self.spec())
        }
    }

    /// Partitions `B'` (never skewed).
    pub fn partition_b(&self) -> Result<PartitionedRelation, StorageError> {
        PartitionedRelation::from_relation(&self.b, self.spec())
    }

    /// A catalog holding `A` (skewed by `theta`) and `B'`.
    pub fn catalog(&self, theta: f64) -> Result<Catalog, StorageError> {
        let mut catalog = Catalog::new();
        catalog.register(self.partition_a(theta)?)?;
        catalog.register(self.partition_b()?)?;
        Ok(catalog)
    }
}

/// Expected cardinality of `B' ⋈ A` on the join column over the relations
/// in `catalog`, computed by [`crate::oracle`] from the registered tuples.
pub fn expected_join(catalog: &Catalog) -> Result<u64, StorageError> {
    let a = catalog.get(A)?;
    let b = catalog.get(B)?;
    let a_col = a.schema().column_index(JOIN_COLUMN)?;
    let b_col = b.schema().column_index(JOIN_COLUMN)?;
    Ok(crate::oracle::join_cardinality(
        b.fragments().iter().flat_map(|f| f.tuples()),
        b_col,
        a.fragments().iter().flat_map(|f| f.tuples()),
        a_col,
    ))
}

/// The paper's AssocJoin (Fig. 11): `B'` redistributed onto `A`.
pub fn assoc_join() -> Plan {
    plans::assoc_join(B, A, JOIN_COLUMN, JoinAlgorithm::Hash)
}

/// The paper's IdealJoin (Fig. 10) with the temporary index over `A`.
pub fn ideal_join() -> Plan {
    plans::ideal_join(B, A, JOIN_COLUMN, JoinAlgorithm::Hash)
}

/// SplitMix64: a small, fixed generator, so a seed means the same inputs
/// on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}
