package repro

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.baselines.FullJoin
import repro.join.{AcyclicQuery, GYO, LocalJoinIndex, Relation, Yannakakis}
import scala.collection.mutable

/** Shared tiny workloads for the unit-test suites. All cached so repeated
  * actions (and the DuckDB oracle) see identical data, and each built once per
  * session and arguments: caching an equal plan again only makes Spark warn.
  */
object TestData {

  private val built = mutable.HashMap.empty[Any, AcyclicQuery]

  /** The query `make` builds, built once per `key`. */
  private def once(key: Any)(make: => AcyclicQuery): AcyclicQuery =
    synchronized(built.getOrElseUpdate(key, make))

  /** Path join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2) — many-to-many, |q(D)| ≈ 50k. */
  def pathQuery(spark: SparkSession, rows: Long = 500, nKeysB: Long = 50,
                nKeysC: Long = 50, seed: Long = 7): AcyclicQuery =
    once(("path", spark, rows, nKeysB, nKeysC, seed)) {
      val r1 = SynthData.pathR1(spark, rows, nKeysB, seed).cache()
      val r2 = SynthData.pathR2(spark, rows, nKeysB, nKeysC, seed + 1).cache()
      val r3 = SynthData.pathR3(spark, rows, nKeysC, seed + 2).cache()
      GYO.joinTree(Seq(Relation("r1", r1), Relation("r2", r2), Relation("r3", r3))).get
    }

  /** The default path join with r3 cut to c <= 20, so that most r2 tuples
    * dangle.
    */
  def danglingPathQuery(spark: SparkSession): AcyclicQuery = {
    val path = pathQuery(spark)
    once(("dangling", spark))(path.withDfs(Map("r3" -> path.relation("r3").df.where(col("c") <= 20).cache())))
  }

  /** 4-relation chain R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,d) ⋈ R4(d,a2) — a deeper join
    * tree than the 3-path.
    */
  def chainQuery(spark: SparkSession): AcyclicQuery =
    once(("chain", spark)) {
      val r1 = SynthData.pathR1(spark, 300, 30, seed = 70).cache()
      val r2 = SynthData.pathR2(spark, 300, 30, 30, seed = 71).cache()
      val r3 = SynthData.pathR2(spark, 300, 30, 30, seed = 72).toDF("c", "d").cache()
      val r4 = SynthData.pathR3(spark, 300, 30, seed = 73).toDF("d", "a2").cache()
      GYO.joinTree(Seq(
        Relation("r1", r1), Relation("r2", r2), Relation("r3", r3), Relation("r4", r4))).get
    }

  /** TPC-H-lite FK join at tiny scale (|q(D)| = |lineitem|). */
  def tpchQuery(spark: SparkSession, sf: Double = 0.001): AcyclicQuery =
    once(("tpch", spark, sf)) {
      val rels = SynthData.tpchJoinRelations(spark, sf).map {
        case (n, df) => Relation(n, df.cache())
      }
      GYO.joinTree(rels).get
    }

  /** Ground truth: the materialized join as driver-side points, columns in
    * q.allAttrs order. Only for tiny queries.
    */
  def materializePts(q: AcyclicQuery): Array[Array[Double]] =
    FullJoin.toPts(Yannakakis.materialize(q).collect())

  /** The DuckDB FROM/WHERE clause of the path join. */
  val pathJoinSql: String =
    "FROM r1, r2, r3 WHERE r1.b = r2.b AND r2.c = r3.c"

  /** The DuckDB FROM/WHERE clause of any acyclic query: its relations, with
    * the shared attributes equal along every join-tree edge.
    */
  def joinSql(q: AcyclicQuery): String = {
    val conds = q.edges.flatMap { case (a, b) =>
      q.relation(a).joinColumns(q.relation(b)).map(c => s"$a.$c = $b.$c")
    }
    s"FROM ${q.relations.map(_.name).mkString(", ")}" +
      (if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", ""))
  }

  /** Checks the index histogram of every attribute of `q` against DuckDB's
    * group-by over the join, and that its weights sum exactly to `countJoin`.
    */
  def assertHistogramsMatchDuckDB(spark: SparkSession, q: AcyclicQuery): Unit = {
    import spark.implicits._
    val index = LocalJoinIndex.build(q)
    val n = Yannakakis.countJoin(q).toDouble
    for (a <- q.allAttrs) {
      val h = index.histogram(a)
      require(h.map(_._2).sum == n, s"histogram of $a sums to ${h.map(_._2).sum}, not $n")
      val rel = q.relations.find(_.attrSet.contains(a)).get.name
      Oracle.assertEquivalent(
        h.toSeq.toDF("v", "w").withColumn("w", col("w").cast("long")),
        s"SELECT CAST($rel.$a AS DOUBLE) AS v, COUNT(*) AS w ${joinSql(q)} GROUP BY 1",
        q.relations.map(r => r.name -> r.df): _*)
    }
  }
}
