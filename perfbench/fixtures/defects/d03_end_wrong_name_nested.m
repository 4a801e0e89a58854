%{
@begin pipeline
@in x
@out y
%}

% @begin Stage @in x @out mid
mid = stage(x);
% @end Stage

%{
@begin Finish
@in mid
@out y
%}
y = finish(mid);
% @end Stage

% @end pipeline
