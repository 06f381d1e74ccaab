package repro.join

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The Yannakakis full reducer as a chain of Spark `left_semi` joins and
  * `distinct`s: the independent Spark reference the tests compare
  * [[Yannakakis.fullReduce]] and [[LocalJoinIndex.build]] against. Spark
  * moves a semi-join's key columns first, so a reduced relation may come
  * back with its columns in another order; its types are the input's.
  */
object SemiJoinReducer {
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
}
