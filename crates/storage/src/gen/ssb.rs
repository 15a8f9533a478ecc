//! Star Schema Benchmark data generator (downscaled, deterministic).
//!
//! Produces the five SSB tables — fact table `lineorder` plus dimensions
//! `customer`, `supplier`, `part`, `date` — with the value distributions the
//! 13 SSB queries select on (O'Neil et al., revision 3). Scale factor `s`
//! yields `s × rows_per_sf` lineorder rows.
//!
//! A seed varies the fact table, not the dimensions. SSB's own `dbgen`
//! takes no seed: a scale factor fixes every table. Here the dimensions
//! are drawn from the default seed's stream whatever the seed, and a seed
//! draws the fact table alone. The downscaled dimensions are too small
//! for drawn shares to average out: 180 k fact rows have 60 suppliers, 12
//! ± 3 of them in a region. A seed that re-drew them moved every join's
//! output, and with it a query's cost, by up to ±25 %; the seed would
//! measure the draw, not the engine.

use super::{city_name, pick_nation, DAYS_IN_MONTH, MONTH_NAMES, NATIONS, REGIONS};
use crate::column::{ColumnData, DictColumn};
use crate::database::Database;
use crate::table::{Field, Schema, Table};
use crate::types::DataType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed a generator starts with, and the one that draws every
/// dimension table.
const DEFAULT_SEED: u64 = 0x55B;

/// Configurable, seeded SSB generator.
#[derive(Debug, Clone)]
pub struct SsbGenerator {
    scale_factor: u32,
    rows_per_sf: usize,
    seed: u64,
}

impl SsbGenerator {
    /// Generator for scale factor `sf` with default downscaling
    /// (60 000 lineorder rows per scale factor, i.e. 100× below spec).
    pub fn new(sf: u32) -> Self {
        SsbGenerator { scale_factor: sf.max(1), rows_per_sf: 60_000, seed: DEFAULT_SEED }
    }

    /// Override the number of lineorder rows per scale factor.
    pub fn with_rows_per_sf(mut self, rows: usize) -> Self {
        self.rows_per_sf = rows.max(1);
        self
    }

    /// Override the seed that draws the fact table (the dimensions stay
    /// the scale's; see the module docs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured scale factor.
    pub fn scale_factor(&self) -> u32 {
        self.scale_factor
    }

    /// Number of lineorder rows this configuration will generate.
    pub fn lineorder_rows(&self) -> usize {
        self.scale_factor as usize * self.rows_per_sf
    }

    /// Generate the database. The default seed draws the fact table from
    /// the stream that drew the dimensions, continued, so its database is
    /// the one a single stream always drew.
    pub fn generate(&self) -> Database {
        let sf = self.scale_factor as u64;
        let mut rng = StdRng::seed_from_u64(DEFAULT_SEED ^ sf);
        let lo_rows = self.lineorder_rows();
        let cust_rows = (lo_rows / 200).max(50);
        let supp_rows = (lo_rows / 3_000).max(20);
        let part_rows = (lo_rows / 30).max(60);

        let mut db = Database::new();
        let date = gen_date();
        let date_keys: Vec<i32> = match date.column("d_datekey").unwrap() {
            ColumnData::Int32(v) => v.clone(),
            _ => unreachable!("d_datekey is int32"),
        };
        db.add_table(gen_customer(cust_rows, &mut rng)).unwrap();
        db.add_table(gen_supplier(supp_rows, &mut rng)).unwrap();
        db.add_table(gen_part(part_rows, &mut rng)).unwrap();
        db.add_table(date).unwrap();
        if self.seed != DEFAULT_SEED {
            rng = StdRng::seed_from_u64(self.seed ^ sf);
        }
        db.add_table(gen_lineorder(
            lo_rows, cust_rows, supp_rows, part_rows, &date_keys, &mut rng,
        ))
        .unwrap();
        db
    }
}

fn gen_customer(rows: usize, rng: &mut StdRng) -> Table {
    let mut custkey = Vec::with_capacity(rows);
    let mut name = Vec::with_capacity(rows);
    let mut city = Vec::with_capacity(rows);
    let mut nation = Vec::with_capacity(rows);
    let mut region = Vec::with_capacity(rows);
    let mut mktsegment = Vec::with_capacity(rows);
    let segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
    for i in 0..rows {
        let n = pick_nation(rng);
        custkey.push(i as i32 + 1);
        name.push(format!("Customer#{:09}", i + 1));
        city.push(city_name(NATIONS[n].0, rng.gen_range(0..10)));
        nation.push(NATIONS[n].0.to_owned());
        region.push(REGIONS[NATIONS[n].1].to_owned());
        mktsegment.push(segments[rng.gen_range(0..segments.len())].to_owned());
    }
    Table::new(
        "customer",
        Schema::new(vec![
            Field::new("c_custkey", DataType::Int32),
            Field::new("c_name", DataType::Str),
            Field::new("c_city", DataType::Str),
            Field::new("c_nation", DataType::Str),
            Field::new("c_region", DataType::Str),
            Field::new("c_mktsegment", DataType::Str),
        ]),
        vec![
            ColumnData::Int32(custkey),
            ColumnData::Str(DictColumn::from_strings(name)),
            ColumnData::Str(DictColumn::from_strings(city)),
            ColumnData::Str(DictColumn::from_strings(nation)),
            ColumnData::Str(DictColumn::from_strings(region)),
            ColumnData::Str(DictColumn::from_strings(mktsegment)),
        ],
    )
    .expect("customer schema is consistent")
}

fn gen_supplier(rows: usize, rng: &mut StdRng) -> Table {
    let mut suppkey = Vec::with_capacity(rows);
    let mut name = Vec::with_capacity(rows);
    let mut city = Vec::with_capacity(rows);
    let mut nation = Vec::with_capacity(rows);
    let mut region = Vec::with_capacity(rows);
    for i in 0..rows {
        let n = pick_nation(rng);
        suppkey.push(i as i32 + 1);
        name.push(format!("Supplier#{:09}", i + 1));
        city.push(city_name(NATIONS[n].0, rng.gen_range(0..10)));
        nation.push(NATIONS[n].0.to_owned());
        region.push(REGIONS[NATIONS[n].1].to_owned());
    }
    Table::new(
        "supplier",
        Schema::new(vec![
            Field::new("s_suppkey", DataType::Int32),
            Field::new("s_name", DataType::Str),
            Field::new("s_city", DataType::Str),
            Field::new("s_nation", DataType::Str),
            Field::new("s_region", DataType::Str),
        ]),
        vec![
            ColumnData::Int32(suppkey),
            ColumnData::Str(DictColumn::from_strings(name)),
            ColumnData::Str(DictColumn::from_strings(city)),
            ColumnData::Str(DictColumn::from_strings(nation)),
            ColumnData::Str(DictColumn::from_strings(region)),
        ],
    )
    .expect("supplier schema is consistent")
}

fn gen_part(rows: usize, rng: &mut StdRng) -> Table {
    let mut partkey = Vec::with_capacity(rows);
    let mut mfgr = Vec::with_capacity(rows);
    let mut category = Vec::with_capacity(rows);
    let mut brand1 = Vec::with_capacity(rows);
    let mut color = Vec::with_capacity(rows);
    let mut size = Vec::with_capacity(rows);
    let colors = ["red", "green", "blue", "ivory", "peach", "plum", "sienna", "linen"];
    for i in 0..rows {
        let m = rng.gen_range(1..=5u32);
        let c = rng.gen_range(1..=5u32);
        let b = rng.gen_range(1..=40u32);
        partkey.push(i as i32 + 1);
        mfgr.push(format!("MFGR#{m}"));
        category.push(format!("MFGR#{m}{c}"));
        brand1.push(format!("MFGR#{m}{c}{b}"));
        color.push(colors[rng.gen_range(0..colors.len())].to_owned());
        size.push(rng.gen_range(1..=50));
    }
    Table::new(
        "part",
        Schema::new(vec![
            Field::new("p_partkey", DataType::Int32),
            Field::new("p_mfgr", DataType::Str),
            Field::new("p_category", DataType::Str),
            Field::new("p_brand1", DataType::Str),
            Field::new("p_color", DataType::Str),
            Field::new("p_size", DataType::Int32),
        ]),
        vec![
            ColumnData::Int32(partkey),
            ColumnData::Str(DictColumn::from_strings(mfgr)),
            ColumnData::Str(DictColumn::from_strings(category)),
            ColumnData::Str(DictColumn::from_strings(brand1)),
            ColumnData::Str(DictColumn::from_strings(color)),
            ColumnData::Int32(size),
        ],
    )
    .expect("part schema is consistent")
}

/// The fixed 7-year date dimension, 1992-01-01 … 1998-12-31 (non-leap).
fn gen_date() -> Table {
    let mut datekey = Vec::new();
    let mut year = Vec::new();
    let mut yearmonthnum = Vec::new();
    let mut yearmonth = Vec::new();
    let mut month = Vec::new();
    let mut weeknuminyear = Vec::new();
    let mut daynuminweek = Vec::new();
    for y in 1992..=1998i32 {
        let mut day_of_year = 0u32;
        for (m, &days) in DAYS_IN_MONTH.iter().enumerate() {
            for d in 1..=days {
                day_of_year += 1;
                datekey.push(y * 10_000 + (m as i32 + 1) * 100 + d as i32);
                year.push(y);
                yearmonthnum.push(y * 100 + m as i32 + 1);
                yearmonth.push(format!("{}{}", MONTH_NAMES[m], y));
                month.push(MONTH_NAMES[m].to_owned());
                weeknuminyear.push(((day_of_year - 1) / 7 + 1) as i32);
                daynuminweek.push(((day_of_year - 1) % 7 + 1) as i32);
            }
        }
    }
    Table::new(
        "date",
        Schema::new(vec![
            Field::new("d_datekey", DataType::Int32),
            Field::new("d_year", DataType::Int32),
            Field::new("d_yearmonthnum", DataType::Int32),
            Field::new("d_yearmonth", DataType::Str),
            Field::new("d_month", DataType::Str),
            Field::new("d_weeknuminyear", DataType::Int32),
            Field::new("d_daynuminweek", DataType::Int32),
        ]),
        vec![
            ColumnData::Int32(datekey),
            ColumnData::Int32(year),
            ColumnData::Int32(yearmonthnum),
            ColumnData::Str(DictColumn::from_strings(yearmonth)),
            ColumnData::Str(DictColumn::from_strings(month)),
            ColumnData::Int32(weeknuminyear),
            ColumnData::Int32(daynuminweek),
        ],
    )
    .expect("date schema is consistent")
}

fn gen_lineorder(
    rows: usize,
    cust_rows: usize,
    supp_rows: usize,
    part_rows: usize,
    date_keys: &[i32],
    rng: &mut StdRng,
) -> Table {
    let mut orderkey = Vec::with_capacity(rows);
    let mut custkey = Vec::with_capacity(rows);
    let mut partkey = Vec::with_capacity(rows);
    let mut suppkey = Vec::with_capacity(rows);
    let mut orderdate = Vec::with_capacity(rows);
    let mut shippriority = Vec::with_capacity(rows);
    let mut quantity = Vec::with_capacity(rows);
    let mut extendedprice = Vec::with_capacity(rows);
    let mut ordtotalprice = Vec::with_capacity(rows);
    let mut discount = Vec::with_capacity(rows);
    let mut revenue = Vec::with_capacity(rows);
    let mut supplycost = Vec::with_capacity(rows);
    let mut tax = Vec::with_capacity(rows);
    for i in 0..rows {
        // Roughly 4 line items per order, like the spec.
        orderkey.push((i / 4) as i32 + 1);
        custkey.push(rng.gen_range(1..=cust_rows as i32));
        partkey.push(rng.gen_range(1..=part_rows as i32));
        suppkey.push(rng.gen_range(1..=supp_rows as i32));
        orderdate.push(date_keys[rng.gen_range(0..date_keys.len())]);
        shippriority.push(0);
        let q = rng.gen_range(1..=50);
        quantity.push(q);
        let price = rng.gen_range(90_000..=10_000_000) as f64 / 100.0;
        extendedprice.push(price);
        ordtotalprice.push(price * rng.gen_range(2..=7) as f64);
        let disc = rng.gen_range(0..=10);
        discount.push(disc);
        revenue.push(price * (100 - disc) as f64 / 100.0);
        supplycost.push(price * 0.6);
        tax.push(rng.gen_range(0..=8));
    }
    Table::new(
        "lineorder",
        Schema::new(vec![
            Field::new("lo_orderkey", DataType::Int32),
            Field::new("lo_custkey", DataType::Int32),
            Field::new("lo_partkey", DataType::Int32),
            Field::new("lo_suppkey", DataType::Int32),
            Field::new("lo_orderdate", DataType::Int32),
            Field::new("lo_shippriority", DataType::Int32),
            Field::new("lo_quantity", DataType::Int32),
            Field::new("lo_extendedprice", DataType::Float64),
            Field::new("lo_ordtotalprice", DataType::Float64),
            Field::new("lo_discount", DataType::Int32),
            Field::new("lo_revenue", DataType::Float64),
            Field::new("lo_supplycost", DataType::Float64),
            Field::new("lo_tax", DataType::Int32),
        ]),
        vec![
            ColumnData::Int32(orderkey),
            ColumnData::Int32(custkey),
            ColumnData::Int32(partkey),
            ColumnData::Int32(suppkey),
            ColumnData::Int32(orderdate),
            ColumnData::Int32(shippriority),
            ColumnData::Int32(quantity),
            ColumnData::Float64(extendedprice),
            ColumnData::Float64(ordtotalprice),
            ColumnData::Int32(discount),
            ColumnData::Float64(revenue),
            ColumnData::Float64(supplycost),
            ColumnData::Int32(tax),
        ],
    )
    .expect("lineorder schema is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> Database {
        SsbGenerator::new(1).with_rows_per_sf(2_000).generate()
    }

    #[test]
    fn all_tables_present() {
        let db = tiny_db();
        for t in ["lineorder", "customer", "supplier", "part", "date"] {
            assert!(db.table(t).is_some(), "missing table {t}");
        }
        assert_eq!(db.table("lineorder").unwrap().num_rows(), 2_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_db();
        let b = tiny_db();
        let la = a.table("lineorder").unwrap();
        let lb = b.table("lineorder").unwrap();
        assert_eq!(la.column("lo_revenue").unwrap(), lb.column("lo_revenue").unwrap());
        assert_eq!(la.column("lo_custkey").unwrap(), lb.column("lo_custkey").unwrap());
    }

    #[test]
    fn seeds_change_data() {
        let a = SsbGenerator::new(1).with_rows_per_sf(500).generate();
        let b = SsbGenerator::new(1).with_rows_per_sf(500).with_seed(99).generate();
        assert_ne!(
            a.table("lineorder").unwrap().column("lo_custkey").unwrap(),
            b.table("lineorder").unwrap().column("lo_custkey").unwrap()
        );
    }

    #[test]
    fn seeds_draw_the_fact_table_not_the_dimensions() {
        let a = SsbGenerator::new(1).with_rows_per_sf(6_000).with_seed(1).generate();
        let b = SsbGenerator::new(1).with_rows_per_sf(6_000).with_seed(2).generate();
        for table in ["customer", "supplier", "part", "date"] {
            let (ta, tb) = (a.table(table).unwrap(), b.table(table).unwrap());
            for f in ta.schema().fields() {
                assert_eq!(ta.column(&f.name).unwrap(), tb.column(&f.name).unwrap(), "{table}");
            }
        }
        let key = |db: &Database| db.table("lineorder").unwrap().column("lo_suppkey").unwrap().clone();
        assert_ne!(key(&a), key(&b));
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let db = tiny_db();
        let lo = db.table("lineorder").unwrap();
        let n_cust = db.table("customer").unwrap().num_rows() as i32;
        let n_supp = db.table("supplier").unwrap().num_rows() as i32;
        let n_part = db.table("part").unwrap().num_rows() as i32;
        let check = |col: &str, max: i32| match lo.column(col).unwrap() {
            ColumnData::Int32(v) => assert!(v.iter().all(|&k| k >= 1 && k <= max)),
            _ => panic!("fk must be int32"),
        };
        check("lo_custkey", n_cust);
        check("lo_suppkey", n_supp);
        check("lo_partkey", n_part);
    }

    #[test]
    fn orderdates_exist_in_date_dim() {
        let db = tiny_db();
        let dates: std::collections::HashSet<i32> =
            match db.table("date").unwrap().column("d_datekey").unwrap() {
                ColumnData::Int32(v) => v.iter().copied().collect(),
                _ => panic!(),
            };
        match db.table("lineorder").unwrap().column("lo_orderdate").unwrap() {
            ColumnData::Int32(v) => assert!(v.iter().all(|d| dates.contains(d))),
            _ => panic!(),
        }
    }

    #[test]
    fn date_dimension_has_seven_years() {
        let db = tiny_db();
        let d = db.table("date").unwrap();
        assert_eq!(d.num_rows(), 7 * 365);
        match d.column("d_year").unwrap() {
            ColumnData::Int32(v) => {
                assert_eq!(*v.iter().min().unwrap(), 1992);
                assert_eq!(*v.iter().max().unwrap(), 1998);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn query_constants_exist() {
        // The 13 SSB queries filter on these values; the generator must
        // produce them at every scale.
        let db = tiny_db();
        let part = db.table("part").unwrap();
        match part.column("p_mfgr").unwrap() {
            ColumnData::Str(d) => assert!(d.code_of("MFGR#1").is_some()),
            _ => panic!(),
        }
        let cust = db.table("customer").unwrap();
        match cust.column("c_region").unwrap() {
            ColumnData::Str(d) => {
                for r in REGIONS {
                    assert!(d.code_of(r).is_some(), "region {r} missing");
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn scale_factor_scales_linearly() {
        let a = SsbGenerator::new(2).with_rows_per_sf(100).generate();
        assert_eq!(a.table("lineorder").unwrap().num_rows(), 200);
    }
}
