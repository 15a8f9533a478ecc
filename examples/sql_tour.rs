//! A tour of the SQL front end: parse, plan (Selinger join ordering,
//! predicate classification, projection pushdown) and execute a set of
//! analytical queries, printing plans and results.
//!
//! ```text
//! cargo run --release --example sql_tour
//! ```

use robustq::engine::ops;
use robustq::sql::plan_sql;
use robustq::storage::gen::ssb::SsbGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = SsbGenerator::new(1).with_rows_per_sf(10_000).generate();

    let queries = [
        (
            "simple filter + projection",
            "select lo_orderkey, lo_revenue from lineorder \
             where lo_discount > 9 and lo_quantity < 3 \
             order by lo_revenue desc limit 5",
        ),
        (
            "star join with grouping (SSB Q3.1 shape)",
            "select c_nation, s_nation, d_year, sum(lo_revenue) as revenue \
             from customer, lineorder, supplier, date \
             where lo_custkey = c_custkey and lo_suppkey = s_suppkey \
             and lo_orderdate = d_datekey and c_region = 'ASIA' \
             and s_region = 'ASIA' and d_year >= 1992 and d_year <= 1997 \
             group by c_nation, s_nation, d_year \
             order by d_year asc, revenue desc limit 8",
        ),
        (
            "IN lists and string ranges",
            "select p_brand1, count(*) as parts from part \
             where p_brand1 between 'MFGR#2221' and 'MFGR#2228' \
             group by p_brand1 order by p_brand1",
        ),
        (
            "aggregates over arithmetic",
            "select d_year, sum(lo_extendedprice * lo_discount) as discounted, \
             avg(lo_quantity) as avg_qty \
             from lineorder, date where lo_orderdate = d_datekey \
             group by d_year order by d_year",
        ),
    ];

    for (title, sql) in queries {
        println!("=== {title} ===");
        println!("SQL: {sql}\n");
        let plan = plan_sql(sql, &db)?;
        println!("plan:\n{plan}");
        let result = ops::execute_plan(&plan, &db)?;
        let names: Vec<&str> =
            result.fields().iter().map(|f| &*f.name).collect();
        println!("result ({} rows): {}", result.num_rows(), names.join(" | "));
        for i in 0..result.num_rows().min(10) {
            let row: Vec<String> =
                result.row(i).iter().map(|v| v.to_string()).collect();
            println!("  {}", row.join(" | "));
        }
        println!();
    }
    Ok(())
}
