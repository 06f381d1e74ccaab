package repro.join

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import scala.jdk.CollectionConverters._

/** Yannakakis-style passes over an acyclic join query. Every edge joins on
  * [[Relation.joinColumns]], in the index and in Spark alike.
  *
  *  - [[fullReduce]]  : classic full reducer — keeps only non-dangling tuples;
  *    the reduction of [[LocalJoinIndex.build]], run on the driver.
  *  - [[countJoin]]   : |q(D)| without materializing the join, as a DataFrame
  *    pass (Catalyst plans the joins and aggregations); the Spark reference
  *    for the index's `n` in tests.
  *  - [[materialize]] : the full join (two-step baseline only!).
  */
object Yannakakis {
  /** No program code reads this prefix: columns named with it join like any
    * other. It stays only because the benchmark's per-layer replay
    * (`perfbench/src/Replay.scala`) filters on it, and goes with that replay.
    */
  val CarryPrefix = "cc_"

  private val Cnt = "__cnt"
  private val ChildCnt = "__ccnt"

  /** The Yannakakis full reducer: the query with its dangling rows removed,
    * each relation holding the rows that take part in some join result, with
    * their multiplicities. This is the reduction [[LocalJoinIndex.build]]
    * runs on the driver, so `fullReduce(q)` builds the index of `q` once and
    * returns, per relation, a local DataFrame of the rows it keeps: the
    * input's column names in the input's order, every column `DoubleType`
    * and non-null, holding the values the index stores. Each relation is
    * collected once, and the reduced frames need no Spark job to collect.
    *
    * It takes on `build`'s input contract and its premise that the input
    * relations fit in driver memory. A null join key makes its row dangle,
    * as in SQL. Any other null, a NaN, a `Long` join key beyond ±2^53, and
    * an inexact decimal join key (one that its double, rounded to the
    * column's scale, does not give back) are rejected, naming the relation
    * and the column.
    */
  def fullReduce(q: AcyclicQuery): AcyclicQuery = {
    val index = LocalJoinIndex.build(q)
    q.withDfs(q.relations.map { r =>
      val node = index.stored(r.name)
      val cols = r.attrs.map(a => node.cols(node.attrIdx.indexOf(index.attrIdx(a))))
      val rows = Seq.tabulate(node.rows)(i => Row.fromSeq(cols.map(_(i))))
      r.name -> r.df.sparkSession.createDataFrame(rows.asJava,
        StructType(r.attrs.map(StructField(_, DoubleType, nullable = false))))
    }.toMap)
  }

  /** |q(D)| in O(N)-style passes (no join materialization): bottom-up, each
    * relation joins its children's messages (join key, count) and sums the
    * products by the key it shares with its parent, so intermediate sizes
    * stay |distinct keys|, never |q(D)|.
    */
  def countJoin(q: AcyclicQuery): Long = {
    def up(node: JoinTree, parent: Option[Relation]): DataFrame = {
      val df = node.children.foldLeft(node.rel.df.withColumn(Cnt, lit(1L))) { (df, c) =>
        val s = node.rel.joinColumns(c.rel)
        val msg = up(c, Some(node.rel)).withColumnRenamed(Cnt, ChildCnt)
        (if (s.nonEmpty) df.join(msg, s) else df.crossJoin(msg))
          .withColumn(Cnt, col(Cnt) * col(ChildCnt)).drop(ChildCnt)
      }
      val keys = parent.map(node.rel.joinColumns).getOrElse(Nil)
      if (keys.nonEmpty) df.groupBy(keys.map(col): _*).agg(sum(Cnt).as(Cnt))
      else df.agg(sum(Cnt).as(Cnt))
    }
    up(q.rooted(q.relations.head.name), None)
      .agg(coalesce(sum(Cnt), lit(0L))).head().getLong(0)
  }

  /** The materialized join q(D) with columns in `q.allAttrs` order. This is
    * the two-step baseline's data-preparation phase — the thing the paper
    * exists to avoid.
    */
  def materialize(q: AcyclicQuery): DataFrame = {
    val tree = q.rooted(q.relations.head.name)
    def join(node: JoinTree): DataFrame =
      node.children.foldLeft(node.rel.df) { (acc, c) =>
        val s = node.rel.joinColumns(c.rel)
        val cdf = join(c)
        if (s.nonEmpty) acc.join(cdf, s) else acc.crossJoin(cdf)
      }
    join(tree).select(q.allAttrs.map(col): _*)
  }
}
