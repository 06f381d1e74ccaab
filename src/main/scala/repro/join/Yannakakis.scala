package repro.join

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Yannakakis-style passes over an acyclic join query, expressed entirely in
  * the DataFrame API (Catalyst plans the semi-joins / aggregations). All but
  * [[materialize]] are the Spark references for [[LocalJoinIndex]] in tests.
  * Every edge joins on [[Relation.joinColumns]], as the index does.
  *
  *  - [[fullReduce]]  : classic full reducer — keeps only non-dangling tuples.
  *  - [[countJoin]]   : |q(D)| without materializing the join.
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

  /** `df` without the rows whose `keys` no row of `other` matches (no keys:
    * all of `df`, or none of it when `other` is empty).
    */
  private def semi(df: DataFrame, other: DataFrame, keys: Seq[String]): DataFrame =
    if (keys.nonEmpty) df.join(other.select(keys.map(col): _*).distinct(), keys, "left_semi")
    else if (other.isEmpty) df.where(lit(false))
    else df

  /** Semi-join full reducer; returns the query with dangling tuples removed.
    * Two passes (bottom-up then top-down) over an arbitrary rooting.
    */
  def fullReduce(q: AcyclicQuery): AcyclicQuery = {
    val tree = q.rooted(q.relations.head.name)
    val reduced = scala.collection.mutable.Map.empty[String, DataFrame]

    def up(node: JoinTree): DataFrame = {
      val df = node.children.foldLeft(node.rel.df)((df, c) => semi(df, up(c), node.rel.joinColumns(c.rel)))
      reduced(node.rel.name) = df
      df
    }

    def down(node: JoinTree): Unit = node.children.foreach { c =>
      reduced(c.rel.name) = semi(reduced(c.rel.name), reduced(node.rel.name), c.rel.joinColumns(node.rel))
      down(c)
    }

    up(tree)
    down(tree)
    q.withDfs(reduced.toMap)
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
