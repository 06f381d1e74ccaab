package repro

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.join.{AcyclicQuery, GYO, Relation}

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) so
  * the DuckDB oracle sees identical input.
  */
object SynthData {
  /** Spark seeds `rand` per partition: a fixed partition count, not the core
    * count, makes every table a function of its sizes and seeds alone. */
  private val Partitions = 4

  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(0, n(NLineitemPerSf, sf), 1, Partitions).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1, 1, Partitions).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed)     * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(seed + 1) * 3 + 1).cast("int"))         as "o_orderstatus",
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 3) * 2406).cast("int"))            as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NCustomerPerSf, sf) + 1, 1, Partitions).toDF("c_custkey").select(
      $"c_custkey",
      (rand(seed) * 25).cast(IntegerType)                as "c_nationkey",
      round(rand(seed + 1) * 10000 - 1000, 2)            as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(seed + 2) * 5 + 1).cast("int"))   as "c_mktsegment",
    )
  }

  /** Skewed key column — for join-skew / cardinality-estimation papers. */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    import spark.implicits._
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k, alpha)).sum
    spark.range(0, rows, 1, Partitions).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      rand(seed + 1) as "v",
    )
  }

  // -------------------------------------------------------------------
  // Relational-clustering workloads (Esmailpour & Sintos, PODS 2024).
  // Many-to-many joins where |q(D)| >> N — the regime where clustering
  // without materializing the join matters. All columns are doubles
  // (dom(A) = R in the paper's model); join keys take nKeys distinct values
  // scaled into [0, 100] so that no attribute dominates Euclidean distances.
  // -------------------------------------------------------------------

  /** A 1-D Gaussian-mixture value column with `nComp` components spread over
    * [0, 100] — gives the join result genuine cluster structure.
    */
  private def mixture(seed: Long, nComp: Int, sigma: Double): Column = {
    val centers = (1 to nComp).map(i => lit(100.0 * i / (nComp + 1)))
    element_at(array(centers: _*), (rand(seed) * nComp + 1).cast("int")) +
      randn(seed + 1000) * sigma
  }

  /** A join-key column: nKeys distinct values uniform on a [0, 100] grid. */
  private def keyCol(seed: Long, nKeys: Long): Column =
    (rand(seed) * nKeys + 1).cast(LongType).cast(DoubleType) * (100.0 / nKeys)

  /** Path join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2): acyclic, many-to-many, with
    * expected |q(D)| ≈ rows^3 / (nKeysB * nKeysC). d = 4 attributes.
    */
  def pathR1(spark: SparkSession, rows: Long, nKeysB: Long, seed: Long = 10,
             nComp: Int = 4, sigma: Double = 3.0): DataFrame =
    spark.range(0, rows, 1, Partitions).select(
      mixture(seed, nComp, sigma)  as "a1",
      keyCol(seed + 1, nKeysB)     as "b",
    )

  def pathR2(spark: SparkSession, rows: Long, nKeysB: Long, nKeysC: Long,
             seed: Long = 20): DataFrame =
    spark.range(0, rows, 1, Partitions).select(
      keyCol(seed, nKeysB)     as "b",
      keyCol(seed + 1, nKeysC) as "c",
    )

  def pathR3(spark: SparkSession, rows: Long, nKeysC: Long, seed: Long = 30,
             nComp: Int = 3, sigma: Double = 3.0): DataFrame =
    spark.range(0, rows, 1, Partitions).select(
      keyCol(seed, nKeysC)        as "c",
      mixture(seed + 1, nComp, sigma) as "a2",
    )

  /** The path join r1 ⋈ r2 ⋈ r3 of the bench suites (seeds 100, 200, 300),
    * every relation cached and counted to keep generation out of timings. */
  def pathQuery(spark: SparkSession, rows: Long, nKeys: Long): AcyclicQuery = {
    val rels = Seq(
      Relation("r1", pathR1(spark, rows, nKeys, seed = 100).cache()),
      Relation("r2", pathR2(spark, rows, nKeys, nKeys, seed = 200).cache()),
      Relation("r3", pathR3(spark, rows, nKeys, seed = 300).cache()))
    rels.foreach(_.df.count())
    GYO.joinTree(rels).get
  }

  /** Triangle query R(a,b), S(b,c), T(c,a) — cyclic, fhw = 3/2. */
  def triangleR(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 40): DataFrame =
    spark.range(0, rows, 1, Partitions).select(keyCol(seed, nKeys) as "a", keyCol(seed + 1, nKeys) as "b")

  def triangleS(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 50): DataFrame =
    spark.range(0, rows, 1, Partitions).select(keyCol(seed, nKeys) as "b", keyCol(seed + 1, nKeys) as "c")

  def triangleT(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 60): DataFrame =
    spark.range(0, rows, 1, Partitions).select(keyCol(seed, nKeys) as "c", keyCol(seed + 1, nKeys) as "a")

  /** TPC-H-lite FK join lineitem ⋈ orders ⋈ customer projected to numeric
    * attributes — the "realistic schema" workload (join size = |lineitem|,
    * FK joins do not blow up; the path join exercises the blow-up regime).
    */
  def tpchJoinRelations(spark: SparkSession, sf: Double): Seq[(String, DataFrame)] = {
    val li = lineitem(spark, sf).select(
      col("l_orderkey").cast(DoubleType) as "okey",
      col("l_quantity") as "qty",
      col("l_extendedprice") as "price")
    val o = orders(spark, sf).select(
      col("o_orderkey").cast(DoubleType) as "okey",
      col("o_custkey").cast(DoubleType) as "ckey",
      col("o_totalprice") as "total")
    val c = customer(spark, sf).select(
      col("c_custkey").cast(DoubleType) as "ckey",
      col("c_acctbal") as "bal")
    Seq("lineitem" -> li, "orders" -> o, "customer" -> c)
  }
}
