# @begin pipeline @in seed @out best
# @begin GridSearch @in seed @out best
best = grid_search(seed)
# @end GridSearch
# @begin RandomSearch @in seed @out best
best = random_search(seed)
# @end RandomSearch
# @end pipeline
